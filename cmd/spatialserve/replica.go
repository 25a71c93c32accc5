package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/wal"
)

// WAL-shipped replicas: read scaling and failover.
//
// A follower bootstraps from the leader's /admin/bootstrap - every
// estimator snapshot plus the WAL position they are exact up to, captured
// under the leader's exclusive cut gate (the same instant-consistent cut a
// checkpoint takes) - then tails /admin/wal, appending each shipped record
// to its OWN log before applying it. The follower's disk state is thereby
// a faithful mirror: its crash recovery is exactly PR4's checkpoint+replay
// path, and because sketches are linear, the replica's counters are
// bit-identical to the leader's at every applied position.
//
// While replicating, the node rejects external mutations (reads serve
// normally - that is the scale-out). Replication is asynchronous: on
// leader death the follower holds every update shipped before the crash;
// updates acknowledged by the leader but not yet shipped are lost unless
// the leader's data dir comes back. POST /admin/promote turns the
// follower into an ordinary read-write node (tailing stopped, external
// writes accepted); repointing clients - or, in cluster mode, broadcasting a
// partition map that binds the dead node's ID to the replica's URL - is
// the operator's half of failover. See docs/CLUSTER.md.

// replicaState is the follower-side replication machinery.
type replicaState struct {
	leader string
	client *cluster.Client
	poll   time.Duration

	mu      sync.Mutex
	pos     wal.Pos // applied through (exclusive)
	lastErr string  // sticky apply/fetch error, surfaced in /admin/ring
	ready   bool    // bootstrap finished; gates /readyz
	wedged  bool    // tail loop stopped on an unappliable record

	active  bool // false after promote
	stop    chan struct{}
	done    chan struct{}
	stopped bool
}

// replicaStatus is the replication half of the /admin/ring document.
type replicaStatus struct {
	// Leader is the replicated node's base URL.
	Leader string `json:"leader"`
	// Active reports whether the node is still read-only and tailing.
	Active bool `json:"active"`
	// Pos is the WAL position applied through (the leader's coordinates).
	Pos string `json:"pos"`
	// LastError is the most recent fetch/apply error, empty when healthy.
	LastError string `json:"lastError,omitempty"`
}

// status snapshots the replication state.
func (rs *replicaState) status() *replicaStatus {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return &replicaStatus{Leader: rs.leader, Active: rs.active, Pos: rs.pos.String(), LastError: rs.lastErr}
}

// replicaReadOnly reports whether external mutations must be rejected.
func (s *Server) replicaReadOnly() bool {
	if s.replica == nil {
		return false
	}
	s.replica.mu.Lock()
	defer s.replica.mu.Unlock()
	return s.replica.active
}

// StartReplica turns the server into a read-only follower of leaderURL:
// it bootstraps the full registry from the leader's exact cut, then tails
// the leader's WAL every poll interval until promoted. Must be called
// before serving traffic.
func (s *Server) StartReplica(leaderURL string, poll time.Duration) error {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	rs := &replicaState{
		leader: strings.TrimRight(leaderURL, "/"),
		client: cluster.NewClient(time.Minute, 0),
		poll:   poll,
		active: true,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.replica = rs
	if err := s.bootstrapReplica(rs); err != nil {
		close(rs.done) // tail loop never starts; let stopReplica return
		return fmt.Errorf("bootstrapping from %s: %w", rs.leader, err)
	}
	rs.mu.Lock()
	rs.ready = true
	rs.mu.Unlock()
	go s.tailLeader(rs)
	return nil
}

// stopReplica halts the tail loop (idempotent).
func (s *Server) stopReplica() {
	rs := s.replica
	if rs == nil {
		return
	}
	rs.mu.Lock()
	if !rs.stopped {
		rs.stopped = true
		close(rs.stop)
	}
	rs.mu.Unlock()
	<-rs.done
}

// bootstrapReplica replaces the local registry with the leader's exact
// cut. Every installed estimator (and every removal of a stale local
// name) is logged locally first, so the follower's own crash recovery
// rebuilds the same state; shipped updates are then logged as the
// verbatim payloads (applyReplicated), keeping the local WAL a byte
// mirror.
func (s *Server) bootstrapReplica(rs *replicaState) error {
	resp, err := rs.client.Do(context.Background(), http.MethodGet, rs.leader+"/admin/bootstrap", nil, nil)
	if err != nil {
		return err
	}
	if resp.Status != http.StatusOK {
		return fmt.Errorf("bootstrap: status %d: %s", resp.Status, resp.Body)
	}
	pos, err := parseWalPos(resp.Header.Get(headerWalPos))
	if err != nil {
		return fmt.Errorf("bootstrap: bad %s header: %w", headerWalPos, err)
	}
	names, snaps, err := decodeBootstrap(resp.Body)
	if err != nil {
		return err
	}
	ests := make([]servable, len(names))
	for i := range names {
		if ests[i], err = restoreServable(snaps[i]); err != nil {
			return fmt.Errorf("bootstrap estimator %q: %w", names[i], err)
		}
	}
	gate := s.mutGate()
	if gate != nil {
		gate.Lock()
		defer gate.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	incoming := make(map[string]bool, len(names))
	for _, n := range names {
		incoming[n] = true
	}
	for name := range s.ests {
		if incoming[name] {
			continue
		}
		if s.persist != nil {
			if err := s.persist.logDelete(context.Background(), name); err != nil {
				return err
			}
		}
		delete(s.ests, name)
	}
	for i, name := range names {
		if s.persist != nil {
			if err := s.persist.logSnapshot(context.Background(), walOpPut, name, snaps[i]); err != nil {
				return err
			}
		}
		s.ests[name] = ests[i]
	}
	rs.mu.Lock()
	rs.pos = pos
	rs.mu.Unlock()
	return nil
}

// tailLeader is the follower's fetch/apply loop.
func (s *Server) tailLeader(rs *replicaState) {
	defer close(rs.done)
	t := time.NewTicker(rs.poll)
	defer t.Stop()
	for {
		select {
		case <-rs.stop:
			return
		case <-t.C:
		}
		// Drain everything available, then go back to sleep.
		for {
			select {
			case <-rs.stop:
				return
			default:
			}
			n, err := s.fetchAndApply(rs)
			if err != nil {
				rs.mu.Lock()
				rs.lastErr = err.Error()
				rs.wedged = errors.Is(err, errReplicaWedged)
				rs.mu.Unlock()
				if errors.Is(err, errReplicaWedged) {
					// Deterministic apply failure: retrying would only
					// double-apply. Stop tailing; the operator sees the
					// sticky error and restarts (or promotes).
					logfServer("spatialserve: %v", err)
					return
				}
				break
			}
			rs.mu.Lock()
			rs.lastErr = ""
			rs.mu.Unlock()
			if n == 0 {
				break
			}
		}
	}
}

// maxShipBytes bounds one WAL shipping response.
const maxShipBytes = 4 << 20

// fetchAndApply pulls one chunk of the leader's WAL and applies it,
// returning the number of records applied. A 410 (history truncated under
// a lagging follower) triggers a fresh bootstrap. Every shipped frame
// carries its own WAL position, and the replication position advances
// frame by frame: if frame i fails (a transient local error, say), the
// position rests exactly on frame i, so the next poll resumes there and
// frames 0..i-1 are never applied twice - re-applying a sketch update is
// not idempotent and would diverge the replica permanently.
func (s *Server) fetchAndApply(rs *replicaState) (n int, err error) {
	// Idle polls (no frames, no error) stay out of the tracer; a poll
	// that shipped data or failed becomes a standalone span so replica
	// lag shows up in the trace ring next to the traffic causing it.
	start := time.Now()
	defer func() {
		if n > 0 || err != nil {
			s.tracer.RecordSpan(context.Background(), "replica.apply", start, time.Since(start), err,
				trace.Attr{K: "frames", V: strconv.Itoa(n)})
		}
	}()
	rs.mu.Lock()
	from := rs.pos
	rs.mu.Unlock()
	u := fmt.Sprintf("%s/admin/wal?from=%s&max=%d", rs.leader, from, maxShipBytes)
	resp, err := rs.client.Do(context.Background(), http.MethodGet, u, nil, nil)
	if err != nil {
		return 0, err
	}
	switch resp.Status {
	case http.StatusOK:
	case http.StatusGone:
		// The leader checkpointed past us; start over from a fresh cut.
		return 0, s.bootstrapReplica(rs)
	default:
		return 0, fmt.Errorf("wal fetch: status %d: %s", resp.Status, resp.Body)
	}
	next, err := parseWalPos(resp.Header.Get(headerWalNext))
	if err != nil {
		return 0, fmt.Errorf("wal fetch: bad %s header: %w", headerWalNext, err)
	}
	frames, err := parseWalFrames(resp.Body)
	if err != nil {
		return 0, err
	}
	setPos := func(p wal.Pos) {
		rs.mu.Lock()
		rs.pos = p
		rs.mu.Unlock()
	}
	for i, fr := range frames {
		if err := s.applyReplicated(fr.payload); err != nil {
			setPos(fr.pos) // the failed frame; earlier ones are done
			return i, fmt.Errorf("%w: record at %v: %v", errReplicaWedged, fr.pos, err)
		}
	}
	setPos(next)
	return len(frames), nil
}

// errReplicaWedged marks an apply failure (as opposed to a transient
// fetch failure): retrying could double-apply or duplicate local log
// records, so the tail loop stops instead. The sticky error is visible
// in /admin/ring; restarting the follower re-bootstraps from a fresh
// leader cut and recovers cleanly.
var errReplicaWedged = errors.New("replication wedged on an unappliable record; restart the follower to re-bootstrap")

// walFrame is one shipped WAL record with its position in the leader's
// log.
type walFrame struct {
	pos     wal.Pos
	payload []byte
}

// parseWalFrames decodes a WAL shipping body: per frame, u64 segment,
// u64 offset, u32 length, payload.
func parseWalFrames(body []byte) ([]walFrame, error) {
	var frames []walFrame
	for len(body) > 0 {
		if len(body) < 20 {
			return nil, fmt.Errorf("wal fetch: truncated frame header")
		}
		pos := wal.Pos{
			Seg: binary.LittleEndian.Uint64(body),
			Off: int64(binary.LittleEndian.Uint64(body[8:])),
		}
		sz := binary.LittleEndian.Uint32(body[16:])
		body = body[20:]
		if uint64(sz) > uint64(len(body)) {
			return nil, fmt.Errorf("wal fetch: frame of %d bytes exceeds body", sz)
		}
		frames = append(frames, walFrame{pos: pos, payload: body[:sz]})
		body = body[sz:]
	}
	return frames, nil
}

// applyReplicated applies one shipped WAL payload to the live registry,
// then - on a persistent follower - appends the raw payload to the local
// WAL, inside the same gate hold so a local checkpoint cut never splits
// the pair. Apply-then-log (the reverse of the write path's log-then-apply
// ordering) is deliberate: a frame that fails to apply must never enter
// the local log, because the tail loop re-fetches failed frames and a
// pre-logged retry would append duplicates that diverge crash recovery.
// Any error here wedges replication (see tailLeader); a restart
// re-bootstraps from a fresh leader cut, discarding local state, so the
// lost apply-vs-log atomicity cannot outlive the process. Shipped records
// apply through applyRecords, never the write path, so nothing is logged
// twice.
func (s *Server) applyReplicated(payload []byte) error {
	op, name, rest, err := parseWalPayload(payload)
	if err != nil {
		return err
	}
	gate := s.mutGate()
	binding := op == walOpCreate || op == walOpDelete || op == walOpPut ||
		op == walOpTenantPut || op == walOpTenantDelete
	if gate != nil {
		if binding {
			gate.Lock()
			defer gate.Unlock()
		} else {
			gate.RLock()
			defer gate.RUnlock()
		}
	}
	if err := s.applyReplicatedOp(op, name, rest); err != nil {
		return err
	}
	if s.persist != nil {
		if _, err := s.persist.w.Append(payload); err != nil {
			return &logFailure{err}
		}
	}
	return nil
}

// applyReplicatedOp dispatches one shipped operation against the live
// registry. Caller holds the appropriate gate.
func (s *Server) applyReplicatedOp(op byte, name string, rest []byte) error {
	switch op {
	case walOpCreate:
		var req createRequest
		if err := json.Unmarshal(rest, &req); err != nil {
			return fmt.Errorf("replicated create %q: %w", name, err)
		}
		est, err := buildServable(req.Kind, req.Config)
		if err != nil {
			return fmt.Errorf("replicated create %q: %w", name, err)
		}
		s.mu.Lock()
		s.ests[name] = est
		s.mu.Unlock()
	case walOpDelete:
		s.mu.Lock()
		delete(s.ests, name)
		s.mu.Unlock()
		// Mirror deleteLocal: marks die with the binding, so a promoted
		// replica is byte-for-byte the leader's recovery.
		s.sessions.dropKey(name)
	case walOpUpdate:
		est, ok := s.lookup(name)
		if !ok {
			return fmt.Errorf("replicated update for unknown estimator %q", name)
		}
		batch, err := parseUpdateRest(rest)
		if err == nil {
			err = applyRecords(est, batch)
		}
		if err != nil {
			return fmt.Errorf("replicated update for %q: %w", name, err)
		}
	case walOpIngest:
		// Mirrors the recovery replay in applyLogged: dedup on the session
		// mark, apply, advance - so the promoted replica's marks match the
		// leader's exactly and a resumed stream cannot double-apply across
		// a failover.
		est, ok := s.lookup(name)
		if !ok {
			return fmt.Errorf("replicated ingest for unknown estimator %q", name)
		}
		session, batch, err := parseIngestRest(rest)
		if err != nil {
			return fmt.Errorf("replicated ingest for %q: %w", name, err)
		}
		ent := s.sessions.lockEntry(session, name, false)
		defer ent.mu.Unlock()
		if batch.Seq <= ent.seq.Load() {
			return nil
		}
		if err := applyRecords(est, batch); err != nil {
			return fmt.Errorf("replicated ingest for %q: %w", name, err)
		}
		ent.seq.Store(batch.Seq)
	case walOpSessionDrop:
		// Mirror the leader's GC/admin drop so a promoted replica's marks
		// match the leader's exactly.
		session, err := parseSessionDropRest(rest)
		if err != nil {
			return fmt.Errorf("replicated session drop for %q: %w", name, err)
		}
		s.sessions.removeMark(session, name)
	case walOpMerge:
		est, ok := s.lookup(name)
		if !ok {
			return fmt.Errorf("replicated merge into unknown estimator %q", name)
		}
		// Same tolerance as recovery replay: a merge the leader rejected
		// deterministically rejects here too.
		if err := est.mergeSnapshot(rest); err != nil {
			logfServer("spatialserve: replicated merge into %q rejected (as at the leader): %v", name, err)
		}
	case walOpPut:
		est, err := restoreServable(rest)
		if err != nil {
			return fmt.Errorf("replicated put %q: %w", name, err)
		}
		s.mu.Lock()
		s.ests[name] = est
		s.mu.Unlock()
	case walOpTenantPut:
		var cfg TenantConfig
		if err := json.Unmarshal(rest, &cfg); err != nil {
			return fmt.Errorf("replicated tenant put %q: %w", name, err)
		}
		s.tenants.set(name, cfg)
	case walOpTenantDelete:
		s.tenants.delete(name)
	default:
		return fmt.Errorf("replicated record: unknown op %d", op)
	}
	return nil
}

// handlePromote turns a follower into an ordinary read-write node:
// tailing stops and external mutations are accepted (the write path logs
// them on a persistent node; nothing needs attaching). The registry it
// serves is the replicated state - recovery semantics identical to a
// crash restart of the leader at the replicated position.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	rs := s.replica
	if rs == nil {
		writeError(w, http.StatusConflict, "node is not a replica (start with -follow)")
		return
	}
	rs.mu.Lock()
	wasActive := rs.active
	rs.mu.Unlock()
	if !wasActive {
		writeError(w, http.StatusConflict, "replica already promoted")
		return
	}
	s.stopReplica()
	rs.mu.Lock()
	rs.active = false
	pos := rs.pos
	rs.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "appliedThrough": pos.String()})
}

// ---- leader-side endpoints ----

// handleBootstrap serves a replica bootstrap: every estimator's snapshot
// plus the WAL position they are exact up to, captured under the
// exclusive cut gate (in-memory marshaling only - the same gate hold a
// checkpoint takes). Body layout, all little-endian:
//
//	u32 count | count * ( uvarint len | name | u64 len | SPE1 bytes )
func (s *Server) handleBootstrap(w http.ResponseWriter, r *http.Request) {
	if s.persist == nil {
		writeError(w, http.StatusConflict, "replication requires a durable leader (start with -data-dir)")
		return
	}
	type snap struct {
		name string
		data []byte
	}
	var snaps []snap
	p := s.persist
	p.gate.Lock()
	cut := p.w.Pos()
	s.mu.RLock()
	for name, est := range s.ests {
		data, err := est.snapshot()
		if err != nil {
			s.mu.RUnlock()
			p.gate.Unlock()
			writeError(w, http.StatusInternalServerError, "snapshotting %q: %v", name, err)
			return
		}
		snaps = append(snaps, snap{name, data})
	}
	s.mu.RUnlock()
	p.gate.Unlock()

	var buf bytes.Buffer
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(snaps)))
	buf.Write(u32[:])
	for _, sn := range snaps {
		buf.Write(binary.AppendUvarint(nil, uint64(len(sn.name))))
		buf.WriteString(sn.name)
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], uint64(len(sn.data)))
		buf.Write(u64[:])
		buf.Write(sn.data)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerWalPos, cut.String())
	w.Write(buf.Bytes())
}

// decodeBootstrap parses a bootstrap body into names and snapshots.
func decodeBootstrap(body []byte) (names []string, snaps [][]byte, err error) {
	r := bytes.NewReader(body)
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, nil, fmt.Errorf("bootstrap body: %w", err)
	}
	for i := uint32(0); i < count; i++ {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return nil, nil, fmt.Errorf("bootstrap body: bad name length")
		}
		name := make([]byte, n)
		if _, err := r.Read(name); err != nil {
			return nil, nil, err
		}
		var sz uint64
		if err := binary.Read(r, binary.LittleEndian, &sz); err != nil {
			return nil, nil, err
		}
		if sz > uint64(r.Len()) {
			return nil, nil, fmt.Errorf("bootstrap body: snapshot %d declares %d bytes, %d left", i, sz, r.Len())
		}
		data := make([]byte, sz)
		if _, err := r.Read(data); err != nil {
			return nil, nil, err
		}
		names = append(names, string(name))
		snaps = append(snaps, data)
	}
	if r.Len() != 0 {
		return nil, nil, fmt.Errorf("bootstrap body: %d trailing bytes", r.Len())
	}
	return names, snaps, nil
}

// maxShipBytesCeiling caps the ?max= a WAL shipping client may request,
// bounding the response buffer one request can pin in memory.
const maxShipBytesCeiling = 32 << 20

// handleWalShip serves a chunk of committed WAL records from ?from=
// (seg:off), at most ?max= framed bytes (capped server-side). Body, per
// frame: u64 segment | u64 offset | u32 length | raw record payload, so
// the follower can advance its position record by record; the position
// after the last frame rides in X-Spatial-Wal-Next. A position older
// than the oldest retained segment answers 410 Gone - the follower's cue
// to re-bootstrap.
func (s *Server) handleWalShip(w http.ResponseWriter, r *http.Request) {
	if s.persist == nil {
		writeError(w, http.StatusConflict, "WAL shipping requires -data-dir")
		return
	}
	from, err := parseWalPos(r.URL.Query().Get("from"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad from position: %v", err)
		return
	}
	max := int64(maxShipBytes)
	if v := r.URL.Query().Get("max"); v != "" {
		if max, err = strconv.ParseInt(v, 10, 64); err != nil || max <= 0 {
			writeError(w, http.StatusBadRequest, "bad max: %q", v)
			return
		}
	}
	if max > maxShipBytesCeiling {
		max = maxShipBytesCeiling
	}
	var buf bytes.Buffer
	next, err := s.persist.w.ReadFrom(from, max, func(pos wal.Pos, payload []byte) error {
		var hdr [20]byte
		binary.LittleEndian.PutUint64(hdr[0:], pos.Seg)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(pos.Off))
		binary.LittleEndian.PutUint32(hdr[16:], uint32(len(payload)))
		buf.Write(hdr[:])
		buf.Write(payload)
		return nil
	})
	if err != nil {
		// Both cases mean the follower's position names history this log
		// does not hold (truncated away, or lost with an unsynced tail on
		// a crash-restarted leader): 410 sends it back to bootstrap.
		if errors.Is(err, wal.ErrTruncatedHistory) || errors.Is(err, wal.ErrFuturePosition) {
			writeError(w, http.StatusGone, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerWalNext, next.String())
	w.Write(buf.Bytes())
}

// parseWalPos parses the seg:off wire form of a WAL position.
func parseWalPos(v string) (wal.Pos, error) {
	seg, off, ok := strings.Cut(v, ":")
	if !ok {
		return wal.Pos{}, fmt.Errorf("position %q is not seg:off", v)
	}
	sg, err := strconv.ParseUint(seg, 10, 64)
	if err != nil {
		return wal.Pos{}, err
	}
	of, err := strconv.ParseInt(off, 10, 64)
	if err != nil {
		return wal.Pos{}, err
	}
	return wal.Pos{Seg: sg, Off: of}, nil
}
