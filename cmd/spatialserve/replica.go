package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// A follower bootstraps from the leader's /admin/bootstrap - the
// leader's image: every estimator snapshot, the tenant configs and the
// session marks at one WAL position, captured under the exclusive gate
// exactly as a checkpoint captures it. It installs the image (and, with
// its own data dir, commits it as its own checkpoint), then tails
// /admin/wal, applying each shipped record through the WAL interpreter
// recovery uses and appending it verbatim to its OWN log. Its crash
// recovery is thereby the ordinary checkpoint + replay path, and because
// sketches are linear, the replica's state is bit-identical to the
// leader's at every applied position - dedup marks and tenants included,
// so a promoted replica keeps the leader's exactly-once promise.
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
		client: cluster.NewClient(time.Minute),
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

// bootstrapReplica replaces the node's state with the leader's image and
// remembers the leader's position it is exact up to. A persistent
// follower commits the installed image as its own checkpoint at its own
// WAL position, so its crash recovery rebuilds the image and replays the
// shipped records it appends after it (applyReplicated). ckptMu comes
// before the gate, the order checkpoint takes them in; the reverse order
// could deadlock against the background checkpoint loop. The commit's
// file writes stall nothing: an active replica takes no writes.
func (s *Server) bootstrapReplica(rs *replicaState) error {
	resp, err := rs.client.Do(context.Background(), http.MethodGet, rs.leader+"/admin/bootstrap", nil, nil)
	if err != nil {
		return err
	}
	if resp.Status != http.StatusOK {
		return fmt.Errorf("bootstrap: status %d: %s", resp.Status, resp.Body)
	}
	img, err := decodeImage(resp.Body)
	if err != nil {
		return err
	}
	leaderPos := img.m.cut()
	p := s.persist
	if p != nil {
		p.ckptMu.Lock()
		defer p.ckptMu.Unlock()
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	if err := s.install(img); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	if p != nil {
		cut := p.w.Pos()
		img.m.WALSegment, img.m.WALOffset = cut.Seg, cut.Off
		if _, err := p.commit(img); err != nil {
			return fmt.Errorf("bootstrap: committing the image: %w", err)
		}
	}
	rs.mu.Lock()
	rs.pos = leaderPos
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
		if err := s.applyReplicated(context.Background(), fr.payload); err != nil {
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

// appendWalFrame appends one WAL shipping frame - u64 segment | u64
// offset | u32 length | payload, little-endian - the layout of /admin/wal
// bodies and of move chunks alike.
func appendWalFrame(dst []byte, pos wal.Pos, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, pos.Seg)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(pos.Off))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// parseWalFrames decodes a body of appendWalFrame frames.
func parseWalFrames(body []byte) ([]walFrame, error) {
	var frames []walFrame
	for len(body) > 0 {
		if len(body) < 20 {
			return nil, fmt.Errorf("wal frames: truncated frame header")
		}
		pos := wal.Pos{
			Seg: binary.LittleEndian.Uint64(body),
			Off: int64(binary.LittleEndian.Uint64(body[8:])),
		}
		sz := binary.LittleEndian.Uint32(body[16:])
		body = body[20:]
		if uint64(sz) > uint64(len(body)) {
			return nil, fmt.Errorf("wal frames: frame of %d bytes exceeds body", sz)
		}
		frames = append(frames, walFrame{pos: pos, payload: body[:sz]})
		body = body[sz:]
	}
	return frames, nil
}

// applyReplicated applies one shipped WAL payload through the WAL
// interpreter, then - on a persistent node - appends the raw payload to
// the local WAL, inside the same gate hold so a local checkpoint cut
// never splits the pair. Replicas apply their leader's frames here, and a
// move target the frames of the shard it is taking over (handleMove).
// Apply-then-log (the reverse of the write path's log-then-apply
// ordering) is deliberate: a frame that fails to apply must never enter
// the local log, because the tail loop re-fetches failed frames and a
// pre-logged retry would append duplicates that diverge crash recovery.
// Any error here wedges replication (see tailLeader); a restart
// re-bootstraps from a fresh leader image, so the lost apply-vs-log
// atomicity cannot outlive the process.
func (s *Server) applyReplicated(ctx context.Context, payload []byte) error {
	op, _, _, err := parseWalPayload(payload)
	if err != nil {
		return err
	}
	switch op {
	case walOpCreate, walOpDelete, walOpPut, walOpTenantPut, walOpTenantDelete:
		s.gate.Lock()
		defer s.gate.Unlock()
	default:
		s.gate.RLock()
		defer s.gate.RUnlock()
	}
	if err := s.applyWALRecord(payload); err != nil {
		return err
	}
	return s.persist.appendRecord(ctx, payload)
}

// handleMove applies one chunk of a partition move at its target
// (POST /admin/move?shard=, sent by handoff): /admin/wal frames that all
// name the shard with op 3, 5, 8 or 9 - first the shard's image as a put
// and count-0 ingest records, then the source's own frames verbatim -
// each applied through applyReplicated, as on a replica. The chunk is
// internal, refused on an active replica and for a shard this node owns,
// and refused whole, before anything applies, when any frame is another.
func (s *Server) handleMove(w http.ResponseWriter, r *http.Request) {
	shard := r.URL.Query().Get("shard")
	switch {
	case !isInternal(r):
		writeError(w, http.StatusForbidden, "partition moves are internal")
		return
	case s.replicaReadOnly():
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	case s.cluster == nil || !cluster.IsShardName(shard):
		writeError(w, http.StatusBadRequest, "a move takes a shard of a cluster node, not %q", shard)
		return
	case s.cluster.owns(shard):
		writeError(w, http.StatusConflict, "this node already owns %q", shard)
		return
	}
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	frames, err := parseWalFrames(data)
	for i := 0; err == nil && i < len(frames); i++ {
		op, name, _, perr := parseWalPayload(frames[i].payload)
		if err = perr; err == nil && (name != shard || op != walOpUpdate && op != walOpPut && op != walOpIngest && op != walOpSessionDrop) {
			err = fmt.Errorf("frame %d, op %d on %q, is no part of this move", i, op, name)
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "move of %q: %v", shard, err)
		return
	}
	for i, fr := range frames {
		if err := s.applyReplicated(r.Context(), fr.payload); err != nil {
			writeError(w, http.StatusInternalServerError, "move of %q: frame %d: %v", shard, i, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"applied": len(frames)})
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

// handleBootstrap serves a replica bootstrap: the node's image, captured
// under the exclusive gate exactly as a checkpoint captures it, in the
// layout of encode.
func (s *Server) handleBootstrap(w http.ResponseWriter, r *http.Request) {
	if s.persist == nil {
		writeError(w, http.StatusConflict, "replication requires a durable leader (start with -data-dir)")
		return
	}
	img, err := s.persist.capture()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// A failed write leaves a truncated body, which the follower's
	// decoder refuses; the status is already sent.
	_ = img.encode(w)
}

// encode writes img as a bootstrap body: the manifest as one line of
// JSON, encoded as the MANIFEST file is, then every snapshot in manifest
// order as uvarint length | SPE1 bytes.
func (img *image) encode(w io.Writer) error {
	if err := writeManifest(w, &img.m); err != nil {
		return err
	}
	for _, snap := range img.snaps {
		if _, err := w.Write(binary.AppendUvarint(nil, uint64(len(snap)))); err != nil {
			return err
		}
		if _, err := w.Write(snap); err != nil {
			return err
		}
	}
	return nil
}

// decodeImage parses a bootstrap body. It accepts only what encode
// writes in this build: the manifest must carry this build's version and
// re-encode to its own line (so a leader of another build is refused,
// not misread), every length is checked against the bytes left before it
// is used, and no byte may follow the last snapshot. The snapshots
// themselves are decoded by install.
func decodeImage(body []byte) (*image, error) {
	line, rest, ok := bytes.Cut(body, []byte{'\n'})
	if !ok {
		return nil, errors.New("bootstrap body: no manifest line")
	}
	img := &image{}
	if err := json.Unmarshal(line, &img.m); err != nil {
		return nil, fmt.Errorf("bootstrap manifest: %w", err)
	}
	if img.m.Version != manifestVersion {
		return nil, fmt.Errorf("bootstrap manifest version %d, this build reads %d", img.m.Version, manifestVersion)
	}
	if canon, err := json.Marshal(&img.m); err != nil || !bytes.Equal(canon, line) {
		return nil, errors.New("bootstrap manifest is not in this build's encoding")
	}
	for _, e := range img.m.Estimators {
		// An overlong uvarint (one encode never writes) ends in a zero byte.
		n, k := binary.Uvarint(rest)
		if k <= 0 || (k > 1 && rest[k-1] == 0) || n > uint64(len(rest)-k) {
			return nil, fmt.Errorf("bootstrap body: bad snapshot length for %q", e.Name)
		}
		img.snaps = append(img.snaps, rest[k:k+int(n)])
		rest = rest[k+int(n):]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("bootstrap body: %d bytes after the last snapshot", len(rest))
	}
	return img, nil
}

// maxShipBytesCeiling caps the ?max= a WAL shipping client may request,
// bounding the response buffer one request can pin in memory.
const maxShipBytesCeiling = 32 << 20

// handleWalShip serves a chunk of committed WAL records from ?from=
// (seg:off), at most ?max= framed bytes (capped server-side), as
// appendWalFrame frames: each carries its position, so the follower can
// advance record by record, and the position after the last frame rides
// in X-Spatial-Wal-Next. A position older than the oldest retained
// segment answers 410 Gone - the follower's cue to re-bootstrap.
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
	var body []byte
	next, err := s.persist.w.ReadFrom(from, max, func(pos wal.Pos, payload []byte) error {
		body = appendWalFrame(body, pos, payload)
		return nil
	})
	if err != nil {
		// Each case means the follower's position names history this log
		// does not hold (truncated away, or lost with an unsynced tail on
		// a crash-restarted leader, which may have rewritten the offset
		// with records of other lengths): 410 sends it back to bootstrap.
		// A failed or closed log keeps its 500, so followers do not
		// bootstrap in a loop against a sick leader.
		if errors.Is(err, wal.ErrTruncatedHistory) || errors.Is(err, wal.ErrFuturePosition) || errors.Is(err, wal.ErrNoRecordAt) {
			writeError(w, http.StatusGone, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerWalNext, next.String())
	w.Write(body)
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
