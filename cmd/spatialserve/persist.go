package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Durability layer: write-ahead log + background checkpoints + recovery.
//
// Every mutation of the served registry is written ahead to a group-
// committed WAL (internal/wal) before it is applied, so a crash - SIGKILL
// included - loses nothing that was acknowledged. Estimator updates reach
// the log from one function, the write path's applyIngestBatch
// (stream.go), under the request's context; registry operations (create,
// delete, snapshot PUT, merge) are logged by their handlers. Because
// sketches are linear projections, replaying the logged update stream into
// same-config estimators reconstructs their counters bit-identically -
// durability here is exact, not approximate.
//
// Checkpoints bound replay time and WAL size: periodically (and on demand
// via POST /admin/checkpoint, and on graceful shutdown) the node's image -
// every estimator's SPE1 snapshot, the tenant configs and the session
// marks - is captured and the manifest records the WAL position it
// corresponds to; recovery installs the image and replays only the WAL
// suffix, through the interpreter replicas use too (applyWALRecord). Old
// checkpoint files and WAL segments are removed once the new manifest is
// durable, so disk use stays proportional to live state plus one
// checkpoint interval of traffic.
//
// Consistency of the cut: a checkpoint must capture exactly the updates
// logged before its WAL position - an update in both the snapshot and the
// replayed suffix would be double-counted. The persister therefore runs
// every logged mutation inside a shared "gate" (gate.RLock held across
// append-to-WAL + apply-to-estimator) and takes the gate exclusively for
// the instant it captures the cut: under the exclusive gate no mutation is
// in flight, so the WAL position and the estimator states agree exactly.
// The gate is held only while capturing that position and marshaling the
// in-memory snapshots (microseconds to low milliseconds - the same
// per-shard counter copy any reader imposes); file writes, fsyncs and WAL
// truncation happen after it is released, so checkpoints never stall
// ingest on I/O.
//
// The same gate makes registry swaps race-free against in-flight updates:
// handlers that mutate one estimator re-verify the name binding under the
// shared gate, and handlers that change a binding (create/delete/PUT) hold
// the gate exclusively - an update racing a PUT-replace either lands (and
// is logged) before the replacement, or observes the stale binding and is
// rejected, so the log never applies an old object's update to the new
// estimator on replay.

// WAL record payloads: op byte | uvarint name length | name | rest.
const (
	walOpCreate byte = 1 // rest: JSON createRequest (kind + config)
	walOpDelete byte = 2 // rest: empty
	walOpUpdate byte = 3 // rest: uvarint record count | UpdateRecord* (a plain, sessionless batch)
	walOpMerge  byte = 4 // rest: raw SPE1 snapshot to fold in
	walOpPut    byte = 5 // rest: raw SPE1 snapshot to create/replace from

	// Tenant-config records: the "name" field carries the tenant name.
	walOpTenantPut    byte = 6 // rest: JSON TenantConfig
	walOpTenantDelete byte = 7 // rest: empty

	// walOpIngest is one exactly-once ingest batch: the records AND the
	// session watermark advance in a single atomic record, so recovery
	// can never apply a batch without remembering it was applied (or
	// vice versa). rest: uvarint session length | session | uvarint seq |
	// uvarint record count | UpdateRecord*. A count of 0 is a pure
	// watermark advance (a move's image carries one per session mark).
	walOpIngest byte = 8

	// walOpSessionDrop removes one session watermark (expiry by the
	// session GC, or an admin drop): logged so recovery and replicas
	// converge on the same mark state as the live server. rest: uvarint
	// session length | session.
	walOpSessionDrop byte = 9
)

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	walSubdir       = "wal"
	ckptSubdir      = "checkpoints"
)

// PersistOptions configures the durability layer of a server.
type PersistOptions struct {
	// DataDir is the root directory for the WAL and checkpoints.
	DataDir string
	// Fsync makes every acknowledged mutation fsync the WAL (power-loss
	// durability). Off, mutations are still written to the kernel before
	// they are acknowledged, which survives process crashes (SIGKILL) but
	// not host crashes.
	Fsync bool
	// CheckpointInterval is the background checkpoint period. Zero
	// disables periodic checkpoints (explicit /admin/checkpoint and the
	// graceful-shutdown checkpoint still run).
	CheckpointInterval time.Duration
	// SegmentBytes overrides the WAL segment rotation threshold (0 uses
	// the WAL default).
	SegmentBytes int64
	// Logf receives progress and warning lines; nil means log.Printf.
	Logf func(format string, args ...any)
	// WALHooks, when set, intercepts WAL segment writes and fsyncs - the
	// fault-injection surface of the durability layer (tests only).
	WALHooks wal.FileHooks
}

// persister owns the WAL, the checkpoint files and the mutation gate of
// one server.
type persister struct {
	srv  *Server
	opts PersistOptions
	w    *wal.WAL

	// gate orders logged mutations against checkpoint cuts and registry
	// swaps: shared for single-estimator mutations (update, merge),
	// exclusive for binding changes (create, delete, PUT) and the cut.
	gate sync.RWMutex

	ckptMu    sync.Mutex       // serializes whole checkpoints
	last      checkpointResult // the last durable checkpoint
	closeOnce sync.Once
	closeErr  error
	stop      chan struct{}
	loopDone  chan struct{}
}

// logFailure marks a failed WAL append - a server-side durability outage.
// Handlers report it as 500 so 5xx-based alerting sees the outage, while
// genuine client mistakes stay 4xx.
type logFailure struct{ err error }

// Error formats the wrapped append failure.
func (e *logFailure) Error() string { return "write-ahead logging failed: " + e.err.Error() }

// Unwrap exposes the underlying WAL error.
func (e *logFailure) Unwrap() error { return e.err }

func (p *persister) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// manifest is the durable checkpoint descriptor: which snapshot file holds
// each estimator, and the WAL position the snapshots are exact up to.
type manifest struct {
	Version    int             `json:"version"`
	Seq        uint64          `json:"seq"`
	WALSegment uint64          `json:"walSegment"`
	WALOffset  int64           `json:"walOffset"`
	Estimators []manifestEntry `json:"estimators"`
	// Tenants carries the tenant configs at the cut (absent in manifests
	// written before tenants existed - recovery treats that as empty).
	Tenants map[string]TenantConfig `json:"tenants,omitempty"`
	// Sessions carries every ingest session's durable high-water mark at
	// the cut, so exactly-once dedup state survives checkpoint + WAL
	// truncation the same way estimator counters do.
	Sessions []sessionMark `json:"sessions,omitempty"`
}

// manifestEntry binds one registered estimator name to its snapshot file.
type manifestEntry struct {
	Name string `json:"name"`
	File string `json:"file"`
}

// newPersister opens (or initializes) the data directory, recovers the
// registry into srv - latest checkpoint plus WAL suffix - and starts the
// background checkpoint loop.
func newPersister(srv *Server, opts PersistOptions) (*persister, error) {
	p := &persister{
		srv:      srv,
		opts:     opts,
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, ckptSubdir), 0o755); err != nil {
		return nil, err
	}

	m, err := p.readManifest()
	if err != nil {
		return nil, err
	}
	from := wal.Pos{}
	if m != nil {
		img := image{m: *m}
		for _, e := range m.Estimators {
			data, err := os.ReadFile(filepath.Join(opts.DataDir, ckptSubdir, e.File))
			if err != nil {
				return nil, fmt.Errorf("loading checkpoint %d: %w", m.Seq, err)
			}
			img.snaps = append(img.snaps, data)
		}
		if err := srv.install(&img); err != nil {
			return nil, fmt.Errorf("loading checkpoint %d: %w", m.Seq, err)
		}
		p.last, from = m.result(), m.cut()
	}

	// Open (trimming any torn tail) before replaying, so replay sees the
	// repaired files; appends start only after recovery anyway.
	walDir := filepath.Join(opts.DataDir, walSubdir)
	onCommit := func(st wal.CommitStats) {
		if m := srv.metrics; m != nil {
			m.observeWALCommit(st)
		}
	}
	// Group commits become standalone spans (no single request owns a
	// batch), so a slow fsync is retained by the tail sampler on its
	// duration alone and shows up beside the requests it stalled.
	onCommitSpan := func(start time.Time, st wal.CommitStats) {
		srv.tracer.RecordSpan(context.Background(), "wal.commit", start, time.Since(start), st.Err,
			trace.Attr{K: "records", V: strconv.Itoa(st.Records)},
			trace.Attr{K: "bytes", V: strconv.Itoa(st.Bytes)},
			trace.Attr{K: "sync_ns", V: strconv.FormatInt(st.SyncDuration.Nanoseconds(), 10)})
	}
	p.w, err = wal.Open(wal.Options{Dir: walDir, Fsync: opts.Fsync, SegmentBytes: opts.SegmentBytes, Logf: p.logf, Hooks: opts.WALHooks, OnCommit: onCommit, OnCommitSpan: onCommitSpan})
	if err != nil {
		return nil, err
	}
	replayed := 0
	err = wal.Replay(walDir, from, func(pos wal.Pos, payload []byte) error {
		replayed++
		if err := srv.applyWALRecord(payload); err != nil {
			return fmt.Errorf("wal record at %v: %w", pos, err)
		}
		return nil
	})
	if err != nil {
		p.w.Close()
		return nil, fmt.Errorf("replaying wal: %w", err)
	}
	if m != nil || replayed > 0 {
		p.logf("spatialserve: recovered %d estimator(s) (checkpoint seq %d + %d wal record(s))",
			len(srv.ests), p.last.Seq, replayed)
	}

	go p.checkpointLoop()
	return p, nil
}

// checkpointLoop runs periodic background checkpoints until stop.
func (p *persister) checkpointLoop() {
	defer close(p.loopDone)
	if p.opts.CheckpointInterval <= 0 {
		<-p.stop
		return
	}
	t := time.NewTicker(p.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if _, err := p.checkpoint(context.Background()); err != nil {
				p.logf("spatialserve: background checkpoint failed: %v", err)
			}
		}
	}
}

// close stops the checkpoint loop, takes a final checkpoint (unless
// abrupt) and closes the WAL. With abrupt set it skips the checkpoint and
// only flushes the log - the in-process equivalent of a crash, used by
// recovery tests. close is idempotent: later calls return the first
// result instead of spurious already-closed errors (deferred Close plus
// an explicit shutdown Close is a common caller pattern).
func (p *persister) close(abrupt bool) error {
	p.closeOnce.Do(func() {
		close(p.stop)
		<-p.loopDone
		var err error
		if !abrupt {
			if _, cerr := p.checkpoint(context.Background()); cerr != nil {
				err = cerr
			}
			if serr := p.w.Sync(); serr != nil && err == nil {
				err = serr
			}
		}
		if cerr := p.w.Close(); cerr != nil && err == nil {
			err = cerr
		}
		p.closeErr = err
	})
	return p.closeErr
}

// ---- logging mutations ----

func appendName(dst []byte, name string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// appendRecord writes one framed record to the WAL, timing the
// enqueue-to-acknowledgement lag (the latency a mutation pays for
// durability) into the metrics registry. When the context carries an
// active span (a traced request paying for durability) the wait is also
// recorded as a child "wal.append" span; untraced paths - background GC,
// replica bootstrap - skip the span rather than mint a standalone trace
// per record.
func (p *persister) appendRecord(ctx context.Context, payload []byte) error {
	start := time.Now()
	_, err := p.w.Append(payload)
	d := time.Since(start)
	if m := p.srv.metrics; m != nil {
		m.walAppendSeconds.With().Observe(d.Seconds())
	}
	if trace.FromContext(ctx) != nil {
		p.srv.tracer.RecordSpan(ctx, "wal.append", start, d, err,
			trace.Attr{K: "bytes", V: strconv.Itoa(len(payload))})
	}
	if err != nil {
		return &logFailure{err}
	}
	return nil
}

// logCreate writes the create record. Caller holds the exclusive gate and
// the registry lock.
func (p *persister) logCreate(ctx context.Context, req *createRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	payload := appendName([]byte{walOpCreate}, req.Name)
	return p.appendRecord(ctx, append(payload, body...))
}

// logDelete writes the delete record. Caller holds the exclusive gate and
// the registry lock.
func (p *persister) logDelete(ctx context.Context, name string) error {
	return p.appendRecord(ctx, appendName([]byte{walOpDelete}, name))
}

// logSnapshot writes a merge or put record carrying raw SPE1 bytes.
func (p *persister) logSnapshot(ctx context.Context, op byte, name string, snapshot []byte) error {
	payload := appendName([]byte{op}, name)
	return p.appendRecord(ctx, append(payload, snapshot...))
}

// logTenant writes a tenant-config record (put carries the JSON config,
// delete carries nothing). Caller holds the exclusive gate.
func (p *persister) logTenant(ctx context.Context, op byte, tenant string, cfg TenantConfig) error {
	payload := appendName([]byte{op}, tenant)
	if op == walOpTenantPut {
		body, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		payload = append(payload, body...)
	}
	return p.appendRecord(ctx, payload)
}

// logUpdate writes one plain (sessionless) update batch record. Caller
// holds the shared gate and validated every record.
func (p *persister) logUpdate(ctx context.Context, name string, batch ingest.Batch) error {
	payload := appendName([]byte{walOpUpdate}, name)
	payload = binary.AppendUvarint(payload, batch.Count)
	return p.appendRecord(ctx, append(payload, batch.Records...))
}

// logIngest writes one exactly-once ingest batch record: records plus
// the session watermark advance, atomically. Caller holds the shared gate
// and the session entry's lock, and validated every record.
func (p *persister) logIngest(ctx context.Context, name, session string, batch ingest.Batch) error {
	return p.appendRecord(ctx, appendIngestRest(appendName([]byte{walOpIngest}, name), session, batch))
}

// appendIngestRest appends the walOpIngest rest layout - uvarint session
// length | session | uvarint seq | uvarint record count | records - which
// is also the body of the internal shard ingest endpoint.
func appendIngestRest(dst []byte, session string, batch ingest.Batch) []byte {
	dst = appendName(dst, session)
	dst = binary.AppendUvarint(dst, batch.Seq)
	dst = binary.AppendUvarint(dst, batch.Count)
	return append(dst, batch.Records...)
}

// logSessionDrop writes one watermark-removal record. Caller holds the
// shared gate and the session entry's lock, mirroring logIngest.
func (p *persister) logSessionDrop(ctx context.Context, name, session string) error {
	payload := appendName([]byte{walOpSessionDrop}, name)
	return p.appendRecord(ctx, appendName(payload, session))
}

// parseSessionDropRest splits a walOpSessionDrop record's rest into the
// session ID.
func parseSessionDropRest(rest []byte) (string, error) {
	sessLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) != sessLen {
		return "", fmt.Errorf("truncated session-drop record")
	}
	return string(rest[n : n+int(sessLen)]), nil
}

// parseIngestRest splits a walOpIngest record's rest into the session
// and the batch, with the same hostile-count bound as the wire decoder.
func parseIngestRest(rest []byte) (string, ingest.Batch, error) {
	sessLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < sessLen {
		return "", ingest.Batch{}, fmt.Errorf("truncated ingest session")
	}
	session := string(rest[n : n+int(sessLen)])
	rest = rest[n+int(sessLen):]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return "", ingest.Batch{}, fmt.Errorf("truncated ingest seq")
	}
	batch, err := parseUpdateRest(rest[n:])
	batch.Seq = seq
	return session, batch, err
}

// parseUpdateRest splits a walOpUpdate record's rest into a batch of
// count records. Every record costs at least 3 bytes (flags, side,
// dims), so a count the bytes cannot hold is rejected before it sizes an
// allocation.
func parseUpdateRest(rest []byte) (ingest.Batch, error) {
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return ingest.Batch{}, fmt.Errorf("truncated record count")
	}
	records := rest[n:]
	if count > uint64(len(records))/3 {
		return ingest.Batch{}, fmt.Errorf("record count %d exceeds what %d bytes can hold", count, len(records))
	}
	return ingest.Batch{Count: count, Records: records}, nil
}

// applyRecords decodes a logged batch and applies every record - the
// WAL interpreter's apply step.
func applyRecords(est servable, batch ingest.Batch) error {
	recs, err := batch.DecodeRecords()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := est.applyRecord(rec); err != nil {
			return err
		}
	}
	return nil
}

// ---- replay ----

// parseWalPayload splits a WAL record payload into its op byte, the
// estimator name and the op-specific rest - shared by the WAL
// interpreter and a move's frame filters.
func parseWalPayload(payload []byte) (op byte, name string, rest []byte, err error) {
	if len(payload) < 1 {
		return 0, "", nil, fmt.Errorf("empty wal payload")
	}
	op = payload[0]
	nameLen, n := binary.Uvarint(payload[1:])
	if n <= 0 || uint64(len(payload)-1-n) < nameLen {
		return 0, "", nil, fmt.Errorf("truncated wal record name")
	}
	name = string(payload[1+n : 1+n+int(nameLen)])
	return op, name, payload[1+n+int(nameLen):], nil
}

// applyWALRecord is the WAL interpreter: the only code that applies a
// logged op. Recovery replays the log suffix after its checkpoint
// through it, and a replica applies every shipped record through it
// (applyReplicated), so both reach the state the live server had at that
// record. Nothing is logged. Registry writes hold s.mu, so readers may
// run beside it.
func (s *Server) applyWALRecord(payload []byte) (err error) {
	op, name, rest, err := parseWalPayload(payload)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("wal op %d on %q: %w", op, name, err)
		}
	}()
	var est servable
	switch op {
	case walOpDelete, walOpUpdate, walOpIngest, walOpMerge:
		var ok bool
		if est, ok = s.lookup(name); !ok {
			return errors.New("estimator not in the registry")
		}
	}
	switch op {
	case walOpCreate, walOpPut:
		if op == walOpCreate {
			var req createRequest
			if err := json.Unmarshal(rest, &req); err != nil {
				return err
			}
			est, err = buildServable(req.Kind, req.Config)
		} else {
			est, err = restoreServable(rest)
		}
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.ests[name] = est
		s.mu.Unlock()
	case walOpDelete:
		s.mu.Lock()
		delete(s.ests, name)
		s.mu.Unlock()
		// Live deletes drop the estimator's session marks (deleteLocal);
		// replay must reach the identical mark state.
		s.sessions.dropKey(name)
	case walOpUpdate:
		batch, err := parseUpdateRest(rest)
		if err != nil {
			return err
		}
		return applyRecords(est, batch)
	case walOpIngest:
		session, batch, err := parseIngestRest(rest)
		if err != nil {
			return err
		}
		ent := s.sessions.lockEntry(session, name, false)
		defer ent.mu.Unlock()
		// The live path never logs a batch at-or-below the watermark, but
		// the same skip keeps replay semantics identical to live apply.
		if batch.Seq <= ent.seq.Load() {
			return nil
		}
		if err := applyRecords(est, batch); err != nil {
			return err
		}
		ent.seq.Store(batch.Seq)
	case walOpMerge:
		// Merges are logged before their config check runs, so a record
		// can hold a snapshot the estimator rejected at runtime; the same
		// deterministic rejection here leaves the same state.
		if err := est.mergeSnapshot(rest); err != nil {
			logfServer("spatialserve: wal merge into %q was rejected (as at runtime): %v", name, err)
		}
	case walOpSessionDrop:
		session, err := parseSessionDropRest(rest)
		if err != nil {
			return err
		}
		// Live drops remove the mark after logging; the estimator may
		// legitimately be gone.
		s.sessions.removeMark(session, name)
	case walOpTenantPut:
		var cfg TenantConfig
		if err := json.Unmarshal(rest, &cfg); err != nil {
			return err
		}
		s.tenants.set(name, cfg)
	case walOpTenantDelete:
		s.tenants.delete(name)
	default:
		return errors.New("unknown op")
	}
	return nil
}

// ---- images and checkpoints ----

// image is a node's whole state at one WAL position: every estimator's
// SPE1 snapshot, the tenant configs and the session marks - what a
// checkpoint manifest describes. A checkpoint captures one and commits
// it; GET /admin/bootstrap captures one and ships it; recovery and a
// replica bootstrap install one, then replay the log after its position.
type image struct {
	m     manifest // commit sets Seq and the entries' File names
	snaps [][]byte // snaps[i] is the snapshot of m.Estimators[i]
}

// cut is the WAL position the manifest's state is exact up to.
func (m *manifest) cut() wal.Pos { return wal.Pos{Seg: m.WALSegment, Off: m.WALOffset} }

// result is what a checkpoint reports for this manifest.
func (m *manifest) result() checkpointResult {
	return checkpointResult{Seq: m.Seq, WALSegment: m.WALSegment, WALOffset: m.WALOffset, Estimators: len(m.Estimators)}
}

// capture takes the node's image under the exclusive gate: no logged
// mutation is in flight, so the WAL position and the states agree
// exactly. Only in-memory work happens under the gate - the same
// per-shard counter copy any reader imposes.
func (p *persister) capture() (*image, error) {
	p.gate.Lock()
	defer p.gate.Unlock()
	// The cut usually lands mid-segment; replay handles that, and
	// TruncateBefore still releases every older segment, so the log on
	// disk is bounded by one segment plus the traffic since the cut.
	cut := p.w.Pos()
	img := &image{m: manifest{Version: manifestVersion, WALSegment: cut.Seg, WALOffset: cut.Off,
		Tenants: p.srv.tenants.configs(), Sessions: p.srv.sessions.export()}}
	p.srv.mu.RLock()
	defer p.srv.mu.RUnlock()
	for name, est := range p.srv.ests {
		data, err := est.snapshot()
		if err != nil {
			return nil, fmt.Errorf("snapshotting %q: %w", name, err)
		}
		img.m.Estimators = append(img.m.Estimators, manifestEntry{Name: name})
		img.snaps = append(img.snaps, data)
	}
	return img, nil
}

// install replaces the registry, the tenant configs and the session
// marks with img's. Every snapshot is decoded before anything is
// replaced, so an image that fails leaves the node as it was. Recovery
// installs the checkpoint it loads; a replica installs its leader's
// image under the exclusive gate (bootstrapReplica).
func (s *Server) install(img *image) error {
	ests := make(map[string]servable, len(img.snaps))
	for i, e := range img.m.Estimators {
		if _, dup := ests[e.Name]; dup {
			return fmt.Errorf("estimator %q appears twice", e.Name)
		}
		est, err := restoreServable(img.snaps[i])
		if err != nil {
			return fmt.Errorf("estimator %q: %w", e.Name, err)
		}
		ests[e.Name] = est
	}
	s.mu.Lock()
	s.ests = ests
	s.mu.Unlock()
	s.tenants.replace(img.m.Tenants)
	s.sessions.replace(img.m.Sessions)
	return nil
}

// checkpointResult reports what a checkpoint captured.
type checkpointResult struct {
	Seq        uint64 `json:"seq"`
	WALSegment uint64 `json:"walSegment"`
	WALOffset  int64  `json:"walOffset"`
	Estimators int    `json:"estimators"`
}

// checkpoint captures the node's image and commits it. Concurrent
// checkpoints serialize; a checkpoint with nothing new logged since the
// last one is a no-op. The context ties the work to the requesting
// trace: admin-triggered checkpoints land as child spans, background
// ones as standalone spans.
func (p *persister) checkpoint(ctx context.Context) (res checkpointResult, err error) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()

	if p.w.Pos() == (wal.Pos{Seg: p.last.WALSegment, Off: p.last.WALOffset}) {
		if m := p.srv.metrics; m != nil {
			m.checkpointTotal.With("noop").Inc()
		}
		return p.last, nil
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		if m := p.srv.metrics; m != nil {
			m.checkpointSeconds.With().Observe(d.Seconds())
			result := "ok"
			if err != nil {
				result = "error"
			}
			m.checkpointTotal.With(result).Inc()
		}
		p.srv.tracer.RecordSpan(ctx, "checkpoint", start, d, err,
			trace.Attr{K: "estimators", V: strconv.Itoa(res.Estimators)},
			trace.Attr{K: "seq", V: strconv.FormatUint(res.Seq, 10)})
	}()
	img, err := p.capture()
	if err != nil {
		return checkpointResult{}, err
	}
	return p.commit(img)
}

// commit makes img this node's durable checkpoint - numbers it, writes
// its snapshot files, then the manifest naming them - and then removes
// the files and WAL segments the previous checkpoint needed. img's
// position must be in this node's own WAL. The work runs off the ingest
// path, after the capture released the gate. Caller holds ckptMu.
func (p *persister) commit(img *image) (checkpointResult, error) {
	m := &img.m
	m.Seq = p.last.Seq + 1
	dir := filepath.Join(p.opts.DataDir, ckptSubdir)
	for i := range m.Estimators {
		m.Estimators[i].File = fmt.Sprintf("est-%d-%d.spe1", m.Seq, i)
		if err := p.writeFile(filepath.Join(dir, m.Estimators[i].File), func(w io.Writer) error {
			_, err := w.Write(img.snaps[i])
			return err
		}); err != nil {
			return checkpointResult{}, err
		}
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := p.writeFile(tmp, func(w io.Writer) error { return writeManifest(w, m) }); err != nil {
		return checkpointResult{}, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return checkpointResult{}, err
	}
	if p.opts.Fsync {
		if err := syncDir(dir); err != nil {
			return checkpointResult{}, err
		}
	}
	p.last = m.result()

	// The new manifest is durable: previous checkpoint files and WAL
	// segments before the cut are garbage.
	p.gcCheckpointFiles(dir, m)
	if err := p.w.TruncateBefore(m.cut()); err != nil {
		p.logf("spatialserve: wal truncation after checkpoint %d failed: %v", m.Seq, err)
	}
	return p.last, nil
}

// writeManifest writes json.Encoder's bytes for m, but encodes the marks
// one at a time: a whole-document buffer would be garbage proportional
// to the marks at every checkpoint.
func writeManifest(w io.Writer, m *manifest) error {
	head := *m
	head.Sessions = nil
	b, err := json.Marshal(&head)
	if err != nil {
		return err
	}
	if len(m.Sessions) > 0 {
		// "sessions" is the last field: reopen the object to append it.
		b = append(b[:len(b)-1], `,"sessions":`...)
		sep := byte('[')
		for i := range m.Sessions {
			mb, err := json.Marshal(&m.Sessions[i])
			if err != nil {
				return err
			}
			if _, err := w.Write(append(append(b, sep), mb...)); err != nil {
				return err
			}
			b, sep = b[:0], ','
		}
		b = append(b, ']', '}')
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// writeFile creates path and fills it through write over a buffered
// writer, then flushes, fsyncs when configured, and closes, checking
// each step.
func (p *persister) writeFile(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil && p.opts.Fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// gcCheckpointFiles removes checkpoint-directory files the current
// manifest does not reference.
func (p *persister) gcCheckpointFiles(dir string, m *manifest) {
	keep := map[string]bool{manifestName: true}
	for _, e := range m.Estimators {
		keep[e.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		p.logf("spatialserve: checkpoint gc: %v", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || keep[e.Name()] {
			continue
		}
		if strings.HasPrefix(e.Name(), "est-") || strings.HasPrefix(e.Name(), manifestName) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				p.logf("spatialserve: checkpoint gc: %v", err)
			}
		}
	}
}

func (p *persister) readManifest() (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(p.opts.DataDir, ckptSubdir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("corrupt checkpoint manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("checkpoint manifest version %d, this build reads %d", m.Version, manifestVersion)
	}
	return &m, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ---- handler-side gating helpers ----

// withEstimator runs fn - a logged mutation of one estimator - under the
// shared mutation gate, re-verifying that name still binds to est
// (binding changes hold the gate exclusively, so the binding cannot
// change while fn runs). Without a gate (no persistence, no cluster) it
// just runs fn.
func (s *Server) withEstimator(name string, est servable, fn func() error) error {
	gate := s.mutGate()
	if gate == nil {
		return fn()
	}
	gate.RLock()
	defer gate.RUnlock()
	cur, ok := s.lookup(name)
	if !ok || cur != est {
		return errStaleBinding
	}
	return fn()
}

// errStaleBinding reports that an estimator was deleted or replaced
// between a handler's lookup and its logged mutation.
var errStaleBinding = fmt.Errorf("estimator was deleted or replaced concurrently; retry")
