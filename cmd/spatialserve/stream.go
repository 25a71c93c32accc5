package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spatial "repro"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// Exactly-once streaming ingest (POST /v1/ingest, HTTP upgrade to the
// internal/ingest frame protocol).
//
// Sketch updates are not idempotent - a double-applied record skews
// every later estimate - so the wire path, the one place a retry can
// double-apply, carries (session, seq) on every batch and the server
// dedups on a per-session high-water mark. The mark and the batch's
// records are logged in ONE WAL record (walOpIngest), so recovery can
// never apply a batch without remembering it, or vice versa; the mark
// also rides the node's image (checkpoint manifest and replica
// bootstrap, like tenant configs) and the replica WAL mirror, so dedup
// survives checkpoint truncation, crash recovery and replica promotion.
// A batch is acked only after that WAL record is group-committed: the
// client may retry every ambiguous failure, and anything at-or-below the
// watermark is dropped (and re-acked) instead of re-applied.
//
// Cluster mode forwards each batch per partition with the SAME
// (session, seq); each owner keeps its own (session, shard) mark, so a
// partial fan-out failure followed by a client retry re-applies only at
// owners that missed it. A stream's routing node also keeps an unlogged
// mark it advances after ALL owners acked - the HelloAck resume hint and
// a fast-path dedup; losing it merely causes re-forwarding that the
// owners' durable marks drop. An Idempotency-Key leaves no mark on its
// router.
//
// A plain JSON update (no Idempotency-Key) rides the same batch path with
// no session: validated whole, logged, applied, but neither deduplicated
// nor ever resent after an ambiguous failure (see applyIngestBatch).

// maxSessionEntries bounds the session table: a hostile client minting
// sessions must hit a wall before the heap does. When full, new sessions
// and keys are refused with a retryable overload error. At ~100 B per
// mark a full table is ~13 MB; the busiest node of a 150 s run at 1,735
// keyed updates/s held at most ~48,700 marks.
const maxSessionEntries = 1 << 17

// streamWindowBatches is the credit window advertised in HelloAck: the
// maximum unacked batches a client may keep in flight.
const streamWindowBatches = 32

// streamHelloTimeout bounds how long a fresh connection may sit before
// completing its handshake.
const streamHelloTimeout = 10 * time.Second

// streamIdleTimeout bounds how long an established stream may sit with
// no frame at all before the server reclaims the connection (the client
// reconnects and resumes; nothing is lost).
const streamIdleTimeout = 5 * time.Minute

// streamStallLimit bounds how long one batch may wait on admission
// before the stream is shed with a retryable overload error.
const streamStallLimit = 30 * time.Second

// idemSessionPrefix starts the session of every Idempotency-Key update's
// mark ("idem:<key>", seq 1). It is reserved: a stream naming such a
// session is refused at Hello, since its batches would close the key's
// dedup window and a later keyed update would be acked but never
// applied. The session GC tells the two kinds of marks apart by it.
const idemSessionPrefix = "idem:"

// errSessionTableFull reports session-table exhaustion (retryable).
var errSessionTableFull = errors.New("ingest session table is full; retry later")

// sessionKey identifies one watermark: a client session streaming into
// one registry key (on partition owners the key is the shard name).
type sessionKey struct {
	session string
	key     string
}

// sessionEntry is one session's dedup state. mu serializes the whole
// check-log-apply-advance sequence for the session so two connections
// replaying the same session cannot interleave; seq is atomic so
// checkpoint export and HelloAck resume reads never need the lock.
type sessionEntry struct {
	mu  sync.Mutex
	seq atomic.Uint64
	// last is the unix-nano time of the entry's latest activity (create,
	// apply, dedup, resume peek) - the idle clock the session GC reads.
	last atomic.Int64
	// dropped marks an entry removed from the table (GC, admin drop or
	// estimator deletion) while a racing holder may still carry a stale
	// pointer; lockEntry re-fetches when it observes the flag.
	dropped atomic.Bool
}

// touch stamps the entry's idle clock.
func (e *sessionEntry) touch() { e.last.Store(time.Now().UnixNano()) }

// sessionMark is the manifest/wire form of one watermark.
type sessionMark struct {
	Session   string `json:"session"`
	Estimator string `json:"estimator"`
	Seq       uint64 `json:"seq"`
}

// sessionTable holds every session's high-water mark. The zero value is
// ready to use.
type sessionTable struct {
	mu sync.Mutex
	// byKey indexes the marks by estimator key, then session: deleting or
	// shipping one estimator's marks is a lookup rather than a scan of
	// every mark, and each key string is held once per estimator instead
	// of once per mark.
	byKey map[string]map[string]*sessionEntry
	// n counts the marks across every key (the cap and the gauge read it).
	n int
	// pinned counts the live stream connections attached to each
	// (session, key): the GC never expires a mark a stream is using,
	// however idle.
	pinned map[sessionKey]int
}

// entry returns (creating if needed) the session's entry. With
// enforceCap set, a full table refuses NEW sessions with nil - existing
// sessions keep working, so a session flood cannot evict dedup state.
// Recovery and replication pass enforceCap=false: what was logged must
// replay.
func (t *sessionTable) entry(session, key string, enforceCap bool) *sessionEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.byKey[key][session]; e != nil || (enforceCap && t.n >= maxSessionEntries) {
		return e
	}
	return t.addLocked(session, key)
}

// addLocked creates the absent entry of (session, key); the caller
// holds t.mu.
func (t *sessionTable) addLocked(session, key string) *sessionEntry {
	if t.byKey == nil {
		t.byKey = make(map[string]map[string]*sessionEntry)
	}
	marks := t.byKey[key]
	if marks == nil {
		marks = make(map[string]*sessionEntry)
		t.byKey[key] = marks
	}
	e := &sessionEntry{}
	e.touch()
	marks[session] = e
	t.n++
	return e
}

// lookup returns the session's entry, or nil, without creating one.
func (t *sessionTable) lookup(session, key string) *sessionEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[key][session]
}

// deleteLocked removes one mark and returns it (nil when absent); the
// caller holds t.mu.
func (t *sessionTable) deleteLocked(session, key string) *sessionEntry {
	marks := t.byKey[key]
	e := marks[session]
	if e == nil {
		return nil
	}
	delete(marks, session)
	if len(marks) == 0 {
		delete(t.byKey, key)
	}
	t.n--
	return e
}

// lockEntry returns the session's entry with its mutex held, re-fetching
// when a concurrent GC or admin drop removed the entry between lookup
// and lock. Returns nil only when enforceCap refuses a new session.
func (t *sessionTable) lockEntry(session, key string, enforceCap bool) *sessionEntry {
	for {
		e := t.entry(session, key, enforceCap)
		if e == nil {
			return nil
		}
		e.mu.Lock()
		if !e.dropped.Load() {
			return e
		}
		e.mu.Unlock()
	}
}

// pin marks a live stream attached to (session, key); pinned marks are
// exempt from GC expiry.
func (t *sessionTable) pin(session, key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pinned == nil {
		t.pinned = make(map[sessionKey]int)
	}
	t.pinned[sessionKey{session, key}]++
}

// unpin releases a pin.
func (t *sessionTable) unpin(session, key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := sessionKey{session, key}
	if n := t.pinned[k]; n > 1 {
		t.pinned[k] = n - 1
	} else {
		delete(t.pinned, k)
	}
}

// isPinned reports whether any live stream is attached to (session, key).
func (t *sessionTable) isPinned(session, key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pinned[sessionKey{session, key}] > 0
}

// removeMark drops one mark outright: a logged session drop, live
// (dropSessionMark, under the entry's lock) or replayed.
func (t *sessionTable) removeMark(session, key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.deleteLocked(session, key); e != nil {
		e.dropped.Store(true)
	}
}

// peek returns the session's watermark (0 when unknown) without
// creating an entry.
func (t *sessionTable) peek(session, key string) uint64 {
	e := t.lookup(session, key)
	if e == nil {
		return 0
	}
	e.touch() // a resume read is activity; keep the mark out of GC reach
	return e.seq.Load()
}

// dropKey removes every session mark for one estimator key - estimator
// deletion invalidates the marks (a recreated estimator must not
// inherit them; session IDs must not be reused across recreation).
func (t *sessionTable) dropKey(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	marks := t.byKey[key]
	for _, e := range marks {
		e.dropped.Store(true)
	}
	t.n -= len(marks)
	delete(t.byKey, key)
}

// marksFor returns the marks of one estimator key, sorted by session
// (a move ships a shard's marks in its image, moveImage).
func (t *sessionTable) marksFor(key string) []sessionMark {
	t.mu.Lock()
	defer t.mu.Unlock()
	marks := t.byKey[key]
	out := make([]sessionMark, 0, len(marks))
	for session, e := range marks {
		out = append(out, sessionMark{Session: session, Estimator: key, Seq: e.seq.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// export returns every mark, sorted by (estimator, session), for an
// image. Callers hold the exclusive mutation gate, so no mark is
// mid-advance.
func (t *sessionTable) export() []sessionMark {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]sessionMark, 0, t.n)
	for key, marks := range t.byKey {
		for session, e := range marks {
			out = append(out, sessionMark{Session: session, Estimator: key, Seq: e.seq.Load()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Estimator != out[j].Estimator {
			return out[i].Estimator < out[j].Estimator
		}
		return out[i].Session < out[j].Session
	})
	return out
}

// replace installs exactly marks (an image's), dropping every other
// mark; a holder of a dropped entry re-fetches (see lockEntry).
func (t *sessionTable) replace(marks []sessionMark) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sessions := range t.byKey {
		for _, e := range sessions {
			e.dropped.Store(true)
		}
	}
	t.byKey, t.n = nil, 0
	for _, m := range marks {
		e := t.byKey[m.Estimator][m.Session]
		if e == nil {
			e = t.addLocked(m.Session, m.Estimator)
		}
		if m.Seq > e.seq.Load() {
			e.seq.Store(m.Seq)
		}
	}
}

// applyIngestBatch is the one write path: every update - a plain JSON
// update, a keyed update, a stream batch or a forwarded partition
// sub-batch - is validated, logged and applied here, and nowhere else.
// Every record is validated before the WAL append, so a batch applies
// whole or not at all and a logged record always replays.
//
//   - With a session the batch is exactly-once: at or below the
//     session's watermark it is dropped (deduped=true: already durable,
//     the caller acks it again); otherwise its records and the watermark
//     advance are logged as one atomic walOpIngest record.
//   - Without a session it is a plain update: not deduplicated, no mark
//     left, logged as a walOpUpdate record; an empty one logs nothing.
//
// On a cluster node a shard must be owned here. That is checked under the
// gate, since a move flips ownership under the exclusive gate, and also
// before a session entry is locked: a move target applies the shard's
// marks gate first, entry second (handleMove), so no write may hold an
// entry of a shard it does not own while it waits for the gate.
func (s *Server) applyIngestBatch(ctx context.Context, name, session string, batch ingest.Batch) (applied int, deduped bool, err error) {
	est, ok := s.lookup(name)
	if !ok {
		return 0, false, fmt.Errorf("%w: %q", errNotFoundLocal, name)
	}
	var ent *sessionEntry
	if session != "" {
		if s.notOwner(name) {
			return 0, false, errNotOwner
		}
		if ent = s.sessions.lockEntry(session, name, true); ent == nil {
			return 0, false, errSessionTableFull
		}
		defer ent.mu.Unlock()
		ent.touch()
		if batch.Seq <= ent.seq.Load() {
			return 0, true, nil
		}
	} else if batch.Count == 0 {
		return 0, false, nil
	}
	recs, err := batch.DecodeRecords()
	if err != nil {
		return 0, false, err
	}
	err = s.withEstimator(name, est, func() error {
		if s.notOwner(name) {
			return errNotOwner
		}
		for _, rec := range recs {
			if verr := est.validateRecord(rec); verr != nil {
				return verr
			}
		}
		if s.persist != nil {
			var lerr error
			if ent != nil {
				lerr = s.persist.logIngest(ctx, name, session, batch)
			} else {
				lerr = s.persist.logUpdate(ctx, name, batch)
			}
			if lerr != nil {
				return lerr
			}
		}
		for _, rec := range recs {
			if aerr := est.applyRecord(rec); aerr != nil {
				// Validated above; a failure here means the WAL record
				// and the sketches disagree - surface loudly.
				return fmt.Errorf("applying validated record: %w", aerr)
			}
		}
		if ent != nil {
			ent.seq.Store(batch.Seq)
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	return len(recs), false, nil
}

// notOwner reports whether name is a shard this cluster node does not
// own under its current map.
func (s *Server) notOwner(name string) bool {
	return s.cluster != nil && cluster.IsShardName(name) && !s.cluster.owns(name)
}

// ---- the streaming endpoint ----

// handleIngestStream upgrades POST /v1/ingest to the binary frame
// protocol and serves the stream until the connection dies. Admission
// is per-batch inside the stream (blocking with a stall bound) rather
// than per-request 429s: overload slows streams down instead of
// storming every client into reconnect loops.
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), ingest.Protocol) {
		w.Header().Set("Upgrade", ingest.Protocol)
		writeError(w, http.StatusUpgradeRequired, "this endpoint speaks %s; set the Upgrade header", ingest.Protocol)
		return
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "connection cannot be hijacked: %v", err)
		return
	}
	defer conn.Close()
	fmt.Fprintf(rw, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n", ingest.Protocol)
	if err := rw.Flush(); err != nil {
		return
	}
	// The stream is no request of its own (ServeHTTP): its hello and each
	// batch are traces of their own.
	s.serveStream(r.Context(), conn, rw)
}

// streamConn bundles one hijacked stream connection with its write
// mutex (acks and errors are written from the read loop only today, but
// the lock keeps that a local property rather than a global invariant).
type streamConn struct {
	conn net.Conn
	rw   *bufio.ReadWriter
	mu   sync.Mutex
}

// writeFrame writes one pre-encoded frame and flushes it.
func (sc *streamConn) writeFrame(frame []byte) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, err := sc.rw.Write(frame); err != nil {
		return err
	}
	return sc.rw.Flush()
}

// fail sends a terminal error frame (best effort) and returns.
func (sc *streamConn) fail(code ingest.ErrorCode, format string, args ...any) {
	sc.writeFrame(ingest.AppendError(nil, code, fmt.Sprintf(format, args...)))
}

// serveStream runs one ingest stream: handshake, then a batch loop that
// acks each batch after its WAL commit. Processing is sequential per
// connection - ordering within a session is the protocol's contract -
// while cross-stream concurrency rides the WAL group commit.
func (s *Server) serveStream(ctx context.Context, conn net.Conn, rw *bufio.ReadWriter) {
	sc := &streamConn{conn: conn, rw: rw}

	helloStart := time.Now()
	conn.SetReadDeadline(time.Now().Add(streamHelloTimeout))
	ft, body, err := ingest.ReadFrame(rw.Reader)
	if err != nil || ft != ingest.FrameHello {
		sc.fail(ingest.CodeBadRequest, "expected hello frame")
		return
	}
	hello, err := ingest.DecodeHello(body)
	if err != nil {
		sc.fail(ingest.CodeBadRequest, "%v", err)
		return
	}
	if strings.HasPrefix(hello.Session, idemSessionPrefix) {
		sc.fail(ingest.CodeBadRequest, "session prefix %q is reserved for Idempotency-Key updates", idemSessionPrefix)
		return
	}
	key := hello.Estimator
	clustered := s.cluster != nil && !cluster.IsShardName(key)
	if !clustered {
		if _, ok := s.lookup(key); !ok {
			sc.fail(ingest.CodeNotFound, "no estimator %q", key)
			return
		}
	}
	tenant := s.keyTenant(key)
	s.metrics.streamStarted(tenant)
	defer s.metrics.streamEnded(tenant)
	// Pin the mark for the stream's lifetime: an attached session is
	// never idle-expired, whatever its frame cadence.
	s.sessions.pin(hello.Session, key)
	defer s.sessions.unpin(hello.Session, key)

	// The watermark resumes the client: on a routing node this is the
	// router's own unlogged mark (0 on another router, the checkpointed
	// value after a restart); the owners' durable marks dedup the resend.
	ack := ingest.AppendHelloAck(nil, ingest.HelloAck{
		Watermark:     s.sessions.peek(hello.Session, key),
		WindowBatches: streamWindowBatches,
	})
	if sc.writeFrame(ack) != nil {
		return
	}
	s.tracer.RecordSpan(ctx, "ingest.hello", helloStart, time.Since(helloStart), nil,
		trace.Attr{K: "session", V: hello.Session},
		trace.Attr{K: "estimator", V: key})

	for {
		conn.SetReadDeadline(time.Now().Add(streamIdleTimeout))
		ft, body, err := ingest.ReadFrame(rw.Reader)
		if err != nil {
			return // closed, killed or idle-timed-out; the client resumes
		}
		if ft != ingest.FrameBatch {
			sc.fail(ingest.CodeBadRequest, "unexpected frame type %d mid-stream", ft)
			return
		}
		batch, err := ingest.DecodeBatch(body)
		if err != nil {
			sc.fail(ingest.CodeBadRequest, "%v", err)
			return
		}
		start := time.Now()
		bctx, sp := s.tracer.Start(ctx, "ingest.batch")
		sp.SetAttr("session", hello.Session)
		sp.SetAttr("seq", strconv.FormatUint(batch.Seq, 10))
		sp.SetAttr("records", strconv.FormatUint(batch.Count, 10))
		if a := s.admit; a != nil {
			release, waited, ok := a.acquireStreamBatch(streamStallLimit)
			if waited {
				s.metrics.ingestStalled(tenant)
			}
			if !ok {
				sp.Fail("admission stalled past " + streamStallLimit.String())
				sp.End()
				sc.fail(ingest.CodeOverloaded, "admission stalled past %s", streamStallLimit)
				return
			}
			err = s.ingestOneBatch(bctx, key, hello.Session, clustered, batch)
			release()
		} else {
			err = s.ingestOneBatch(bctx, key, hello.Session, clustered, batch)
		}
		d := time.Since(start)
		if err != nil {
			sp.Fail(err.Error())
		}
		traceID := sp.TraceID()
		sp.End()
		if s.slowLog.Enabled(d) {
			op := trace.SlowOp{
				Op:       "ingest.batch",
				Tenant:   tenant,
				Endpoint: "/v1/ingest",
				Duration: d,
			}
			if !traceID.IsZero() {
				op.TraceID = traceID.String()
			}
			if err != nil {
				op.Err = err.Error()
			}
			s.slowLog.Observe(op)
		}
		if err != nil {
			code, msg := streamErrorFor(err)
			sc.fail(code, "%s", msg)
			return
		}
		s.metrics.observeIngestAck(tenant, d)
		if sc.writeFrame(ingest.AppendAck(nil, batch.Seq)) != nil {
			return
		}
	}
}

// ingestOneBatch applies one stream batch locally or through cluster
// routing, recording the batch metrics. A routed batch also checks and,
// once every owner acked, advances the router's own mark (HelloAck).
func (s *Server) ingestOneBatch(ctx context.Context, key, session string, clustered bool, batch ingest.Batch) error {
	var applied int
	var deduped bool
	var err error
	if clustered {
		ent := s.sessions.lockEntry(session, key, true)
		if ent == nil {
			return errSessionTableFull
		}
		defer ent.mu.Unlock()
		ent.touch()
		if deduped = batch.Seq <= ent.seq.Load(); !deduped {
			if applied, deduped, err = s.cluster.routeIngest(ctx, key, session, batch); err == nil {
				ent.seq.Store(batch.Seq)
			}
		}
	} else {
		applied, deduped, err = s.applyIngestBatch(ctx, key, session, batch)
	}
	if err != nil {
		return err
	}
	s.metrics.observeIngestBatch(s.keyTenant(key), deduped, applied)
	return nil
}

// streamErrorFor maps an ingest failure to its wire error code.
func streamErrorFor(err error) (ingest.ErrorCode, string) {
	var lf *logFailure
	var ce *shardClientError
	switch {
	case errors.Is(err, errNotFoundLocal) || errors.Is(err, errShardMissing):
		return ingest.CodeNotFound, err.Error()
	case errors.Is(err, errSessionTableFull):
		return ingest.CodeOverloaded, err.Error()
	case errors.As(err, &lf):
		return ingest.CodeInternal, err.Error()
	case err == errStaleBinding || errors.Is(err, errNotOwner):
		// A rebalance raced the batch; the new owner dedups the resend.
		return ingest.CodeInternal, err.Error()
	case errors.As(err, &ce):
		return ingest.CodeBadRequest, err.Error()
	case errors.Is(err, errForwardFailed):
		return ingest.CodeInternal, err.Error()
	}
	return ingest.CodeBadRequest, err.Error()
}

// keyTenant returns the bounded tenant metric label for a registry
// key.
func (s *Server) keyTenant(key string) string {
	t, _ := splitTenant(key)
	if t == "" || t == DefaultTenant {
		return DefaultTenant
	}
	if s.tenants.get(t) != nil {
		return t
	}
	return "other"
}

// ---- internal shard endpoints (cluster fan-out) ----

// handleShardIngest applies one forwarded sub-batch at a partition
// owner: POST body is the walOpIngest rest layout (session | seq |
// count | records), with an empty session for a plain update. Internal
// only - the (session, seq) contract is meaningless for external callers
// hitting shard keys directly.
func (s *Server) handleShardIngest(w http.ResponseWriter, r *http.Request) {
	if !isInternal(r) {
		writeError(w, http.StatusForbidden, "shard ingest is internal")
		return
	}
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	name := r.PathValue("name")
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	session, batch, err := parseIngestRest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	applied, deduped, err := s.applyIngestBatch(r.Context(), name, session, batch)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestShardResponse{Applied: applied, Deduped: deduped})
}

// writeIngestError maps a write-path failure to its HTTP status, shared
// by the JSON update endpoint and the internal shard endpoint.
func writeIngestError(w http.ResponseWriter, err error) {
	var lf *logFailure
	var pe *partialUpdateError
	switch {
	case errors.As(err, &pe):
		writeError(w, http.StatusBadGateway, "%v", err)
	case errors.Is(err, errNotFoundLocal) || errors.Is(err, errShardMissing):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, errSessionTableFull):
		reject(w, 1)
	case err == errStaleBinding || errors.Is(err, errNotOwner):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.As(err, &lf), errors.Is(err, errForwardFailed):
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// ingestShardResponse acknowledges one forwarded sub-batch.
type ingestShardResponse struct {
	Applied int  `json:"applied"`
	Deduped bool `json:"deduped"`
}

// ---- JSON updates as record batches ----

// updateRecords converts a JSON update batch into update records for the
// write path.
func updateRecords(req *updateRequest) ([]spatial.UpdateRecord, error) {
	op := spatial.OpInsert
	if req.Op == "delete" {
		op = spatial.OpDelete
	}
	var side spatial.UpdateSide
	switch req.Side {
	case "", "data":
		side = spatial.SideData
	case "left":
		side = spatial.SideLeft
	case "right":
		side = spatial.SideRight
	case "inner":
		side = spatial.SideInner
	case "outer":
		side = spatial.SideOuter
	default:
		return nil, fmt.Errorf("unknown side %q", req.Side)
	}
	recs := make([]spatial.UpdateRecord, 0, len(req.Rects)+len(req.Points))
	for _, r := range decodeRects(req.Rects) {
		recs = append(recs, spatial.UpdateRecord{Op: op, Side: side, Rect: r})
	}
	for _, p := range decodePoints(req.Points) {
		recs = append(recs, spatial.UpdateRecord{Op: op, Side: side, Point: p})
	}
	return recs, nil
}
