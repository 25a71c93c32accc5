package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// Server exposes a registry of named estimators over HTTP: the
// build-at-the-edge / merge-and-query-centrally deployment of the paper's
// synopses as a service. All estimator operations are safe under
// concurrent requests - the estimators themselves are concurrency-safe,
// and the registry only guards its name map.
//
// Endpoints (JSON unless noted):
//
//	POST   /v1/estimators                 create {name, kind, config}
//	GET    /v1/estimators                 list
//	GET    /v1/estimators/{name}          info (config, counts, space)
//	DELETE /v1/estimators/{name}          drop
//	POST   /v1/estimators/{name}/update   insert/delete a batch of objects
//	POST   /v1/estimators/{name}/estimate estimate (GET works when no body is
//	       needed; {"queries": [...]} batches many range queries against one
//	       consistent view)
//	GET    /v1/estimators/{name}/snapshot full-estimator snapshot (binary SPE1 envelope)
//	PUT    /v1/estimators/{name}/snapshot create/replace the estimator from a snapshot
//	POST   /v1/estimators/{name}/merge    fold a snapshot into the estimator
//	PUT    /v1/tenants/{tenant}           register/replace a tenant config
//	GET    /v1/tenants                    list tenant configs
//	GET    /v1/tenants/{tenant}           tenant config + word usage breakdown
//	DELETE /v1/tenants/{tenant}           drop a tenant config (must hold no estimators)
//	*      /v1/tenants/{tenant}/estimators[/{name}...]  tenant-scoped estimator
//	       routes: the same operations as /v1/estimators on key "tenant/name"
//	POST   /admin/checkpoint              force a durable checkpoint (persistence only)
//	GET    /metrics                       Prometheus text exposition (admission-exempt)
//	GET    /healthz
type Server struct {
	mu   sync.RWMutex
	ests map[string]servable
	mux  *http.ServeMux

	// persist, when non-nil, write-ahead-logs every mutation and owns
	// checkpoints and recovery (see persist.go).
	persist *persister

	// cluster, when non-nil, routes requests across the partition map
	// (see cluster.go).
	cluster *clusterNode

	// replica, when non-nil, tails a leader's WAL; while active the node
	// is read-only (see replica.go).
	replica *replicaState

	// admit, when non-nil, runs admission control (inflight gates + rate
	// shedding) in front of the mux (see admit.go).
	admit *admitter

	// tenants holds per-tenant configs - memory budgets and admission
	// limits (see tenant.go).
	tenants tenantRegistry

	// metrics is the always-on observability registry behind GET /metrics
	// (see metrics.go).
	metrics *serverMetrics

	// sessions holds the per-session ingest high-water marks that give
	// the streaming path exactly-once semantics (see stream.go). The
	// marks are persisted through the WAL and checkpoint manifest.
	sessions sessionTable

	// tracer records request spans into a bounded tail-sampled ring
	// served by GET /admin/trace (see trace.go). Never nil.
	tracer *trace.Tracer

	// slowLog is the structured slow-op JSON log (disabled until
	// EnableSlowOpLog; see trace.go). Never nil.
	slowLog *trace.SlowOpLogger

	// peers serves the peer connections routers read partitions on (see
	// answerPeer); Close closes them.
	peers cluster.PeerConns

	// gcStop/gcDone/gcOnce control the background session-mark GC loop
	// (see sessions_gc.go); gcStop is nil when GC is not running.
	gcStop chan struct{}
	gcDone chan struct{}
	gcOnce sync.Once
}

// servable is the kind-erased server view of one estimator.
type servable interface {
	kind() spatial.Kind
	configJSON() any
	instances() int
	spaceWords() int
	counts() map[string]int64
	estimate(req *estimateRequest) (*estimateResponse, error)
	estimateBatch(req *estimateRequest) (*batchEstimateResponse, error)
	snapshot() ([]byte, error)
	mergeSnapshot(data []byte) error
	// version is the wrapped estimator's write version (see
	// spatial.JoinEstimator.Version).
	version() uint64
	// snapshotTag is this object's snapshot validator at write version v
	// (see incarnation).
	snapshotTag(v uint64) string
	// applyRecord applies one update record: the write path's apply step
	// (see applyIngestBatch) and the replay of a logged one.
	applyRecord(rec spatial.UpdateRecord) error
	// validateRecord checks a record without applying it - exactly the
	// validation applyRecord performs, so a record that passes can be
	// WAL-logged ahead of its apply.
	validateRecord(rec spatial.UpdateRecord) error
}

// NewServer returns a ready-to-serve handler with an empty in-memory
// registry (no durability; see NewPersistentServer).
func NewServer() *Server {
	s := &Server{ests: make(map[string]servable), mux: http.NewServeMux()}
	s.tenants.tenants = make(map[string]*tenantState)
	s.metrics = newServerMetrics(s)
	s.initTracing()
	s.observeViewRebuilds()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenantList)
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handleTenantPut)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}", s.handleTenantGet)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleTenantDelete)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/estimators", s.handleTenantCreate)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/estimators", s.handleTenantEstimatorList)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/estimators/{name}", s.tenantEstimatorRoute(""))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/estimators/{name}", s.tenantEstimatorRoute(""))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/estimators/{name}/update", s.tenantEstimatorRoute("/update"))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/estimators/{name}/estimate", s.tenantEstimatorRoute("/estimate"))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/estimators/{name}/estimate", s.tenantEstimatorRoute("/estimate"))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/estimators/{name}/snapshot", s.tenantEstimatorRoute("/snapshot"))
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}/estimators/{name}/snapshot", s.tenantEstimatorRoute("/snapshot"))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/estimators/{name}/merge", s.tenantEstimatorRoute("/merge"))
	s.mux.HandleFunc("POST /v1/estimators", s.handleCreate)
	s.mux.HandleFunc("GET /v1/estimators", s.handleList)
	s.mux.HandleFunc("GET /v1/estimators/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/estimators/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/estimators/{name}/update", s.handleUpdate)
	s.mux.HandleFunc("GET /v1/estimators/{name}/estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /v1/estimators/{name}/estimate", s.handleEstimate)
	s.mux.HandleFunc("GET /v1/estimators/{name}/snapshot", s.handleSnapshotGet)
	s.mux.HandleFunc("PUT /v1/estimators/{name}/snapshot", s.handleSnapshotPut)
	s.mux.HandleFunc("POST /v1/estimators/{name}/merge", s.handleMerge)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngestStream)
	s.mux.HandleFunc("GET "+cluster.PeerPath, s.handlePeer)
	s.mux.HandleFunc("POST /v1/estimators/{name}/ingest", s.handleShardIngest)
	s.mux.HandleFunc("POST /admin/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /admin/ring", s.handleRingGet)
	s.mux.HandleFunc("POST /admin/ring", s.handleRingAdopt)
	s.mux.HandleFunc("POST /admin/rebalance", s.handleRebalance)
	s.mux.HandleFunc("POST /admin/move", s.handleMove)
	s.mux.HandleFunc("GET /admin/bootstrap", s.handleBootstrap)
	s.mux.HandleFunc("GET /admin/wal", s.handleWalShip)
	s.mux.HandleFunc("POST /admin/promote", s.handlePromote)
	s.mux.HandleFunc("GET /admin/sessions", s.handleSessionList)
	s.mux.HandleFunc("DELETE /admin/sessions", s.handleSessionDelete)
	s.mux.HandleFunc("GET /admin/trace", s.handleTraceList)
	s.mux.HandleFunc("GET /admin/trace/{id}", s.handleTraceGet)
	return s
}

// NewPersistentServer returns a server whose registry is durable under
// opts.DataDir: the registry is recovered from the latest checkpoint plus
// the WAL suffix, every subsequent mutation is write-ahead logged, and
// checkpoints run in the background. Callers must Close it to flush and
// release the data directory.
func NewPersistentServer(opts PersistOptions) (*Server, error) {
	s := NewServer()
	p, err := newPersister(s, opts)
	if err != nil {
		return nil, err
	}
	s.persist = p
	return s, nil
}

// Close stops replication tailing, closes the peer connections it serves
// and its own idle ones, takes a final checkpoint (when persistence is
// enabled), flushes and closes the WAL. The in-memory registry remains
// queryable; Close is for graceful shutdown.
func (s *Server) Close() error {
	s.stopSessionGC()
	s.stopReplica()
	s.closePeers()
	if s.persist == nil {
		return nil
	}
	return s.persist.close(false)
}

// closePeers closes the peer connections this node serves and the idle
// ones it keeps to its peers - every socket a crash would close.
func (s *Server) closePeers() {
	s.peers.Close()
	if s.cluster != nil {
		s.cluster.client.Close()
	}
}

// handlePeer upgrades a peer connection and answers its grouped reads
// until it closes (internal: routers dial it, see cluster.Client.Send).
// Replicas serve it too, so a failed owner's reads reach its replica the
// same way.
func (s *Server) handlePeer(w http.ResponseWriter, r *http.Request) {
	s.peers.Serve(w, r, s.answerPeer)
}

// ServeHTTP attaches the request/trace IDs, opens the request's root
// span (a child of an incoming traceparent, so fan-out sub-requests
// stitch into the caller's trace), runs global then per-tenant admission
// control, dispatches to the registry's endpoint handlers, and records
// the request metrics - with the trace ID attached as an exemplar when
// the trace was retained - plus a structured slow-op line when the
// request crossed the slow threshold.
//
// A connection upgraded to a frame protocol (a stream, a peer connection)
// is no request: each frame on it is traced on its own, and the
// connection is counted once when it closes, with nothing else recorded.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint := classifyEndpoint(r)
	if p := r.URL.Path; p == "/v1/ingest" || p == cluster.PeerPath {
		sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.serveAdmitted(sw, r)
		s.metrics.reqTotal.With(endpoint, s.metricsTenant(r), strconv.Itoa(sw.status)).Inc()
		return
	}
	op := "http " + endpoint
	ctx, sp := s.tracer.Start(traceRequest(w, r), op)
	if sp != nil {
		sp.SetAttr("endpoint", endpoint)
		if rid := requestIDFrom(ctx); rid != "" {
			sp.SetAttr("request_id", rid)
		}
	}
	r = r.WithContext(ctx)
	start := time.Now()
	sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.serveAdmitted(sw, r)
	s.finishRequest(sp, op, endpoint, s.metricsTenant(r), sw.status, time.Since(start), requestIDFrom(ctx))
}

// finishRequest ends a served request's span (named op) and records the
// request metrics - with the trace ID attached as an exemplar when the
// trace was retained - plus a structured slow-op line when the request
// crossed the slow threshold.
func (s *Server) finishRequest(sp *trace.Span, op, endpoint, tenant string, code int, d time.Duration, rid string) {
	status := strconv.Itoa(code)
	sp.SetAttr("tenant", tenant)
	sp.SetAttr("status", status)
	if code >= http.StatusInternalServerError {
		sp.Fail("status " + status)
	}
	traceID := sp.TraceID()
	hist := s.metrics.reqSeconds.With(endpoint, tenant)
	if sp.End() {
		hist.ObserveExemplar(d.Seconds(), traceID.String())
	} else {
		hist.Observe(d.Seconds())
	}
	s.metrics.reqTotal.With(endpoint, tenant, status).Inc()
	if s.slowLog.Enabled(d) {
		op := trace.SlowOp{
			Op:        op,
			RequestID: rid,
			Tenant:    tenant,
			Endpoint:  endpoint,
			Status:    code,
			Duration:  d,
		}
		if !traceID.IsZero() {
			op.TraceID = traceID.String()
		}
		s.slowLog.Observe(op)
	}
}

// serveAdmitted runs the admission gates (global, then per-tenant) and
// the mux.
func (s *Server) serveAdmitted(w http.ResponseWriter, r *http.Request) {
	if a := s.admit; a != nil {
		release, ok := a.admit(w, r, s.metrics)
		if !ok {
			return
		}
		defer release()
	}
	release, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	defer release()
	s.mux.ServeHTTP(w, r)
}

// lookup fetches an estimator by name under the registry read lock.
func (s *Server) lookup(name string) (servable, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.ests[name]
	return e, ok
}

// ---- wire types ----

type errorResponse struct {
	Error string `json:"error"`
}

// configRequest is the public estimator configuration over the wire. The
// zero sizing falls back to the library default (512 instances, 8 groups).
type configRequest struct {
	Dims        int    `json:"dims"`
	DomainSize  uint64 `json:"domainSize"`
	Eps         uint64 `json:"eps,omitempty"`      // epsjoin only
	Mode        string `json:"mode,omitempty"`     // join only: "transform" | "common-endpoints"
	MaxLevel    int    `json:"maxLevel,omitempty"` // 0 adaptive, -1 uncapped, >0 explicit
	Seed        uint64 `json:"seed"`
	Instances   int    `json:"instances,omitempty"`
	Groups      int    `json:"groups,omitempty"`
	MemoryWords int    `json:"memoryWords,omitempty"`
}

func (c configRequest) sizing() spatial.Sizing {
	return spatial.Sizing{Instances: c.Instances, Groups: c.Groups, MemoryWords: c.MemoryWords}
}

type createRequest struct {
	Name   string        `json:"name"`
	Kind   string        `json:"kind"`
	Config configRequest `json:"config"`
}

// updateRequest applies a batch of inserts or deletes to one side.
type updateRequest struct {
	// Op is "insert" (default) or "delete".
	Op string `json:"op,omitempty"`
	// Side selects the input: "left"/"right" for join and epsilon-join,
	// "inner"/"outer" for containment, omitted (or "data") for range.
	Side string `json:"side,omitempty"`
	// Rects holds hyper-rectangles as [dim][lo,hi] pairs (join, range,
	// containment).
	Rects [][][2]uint64 `json:"rects,omitempty"`
	// Points holds points as coordinate arrays (epsilon-join).
	Points [][]uint64 `json:"points,omitempty"`
}

type updateResponse struct {
	Applied int              `json:"applied"`
	Counts  map[string]int64 `json:"counts"`
	// Deduped reports that an Idempotency-Key request was already applied
	// by an earlier attempt: nothing changed, Applied is 0, and the 200 is
	// the replayed acknowledgement.
	Deduped bool `json:"deduped,omitempty"`
}

// estimateRequest parameterizes an estimate. Only range queries need one.
type estimateRequest struct {
	// Query is the range-query hyper-rectangle as [dim][lo,hi] pairs.
	Query [][2]uint64 `json:"query,omitempty"`
	// Queries batches many range queries into one request: all of them are
	// answered from ONE pinned estimator view with shared kernel scratch,
	// and the response is a batchEstimateResponse. Range estimators only.
	Queries [][][2]uint64 `json:"queries,omitempty"`
	// Extended selects the Definition 4 extended join
	// (ModeCommonEndpoints join estimators only).
	Extended bool `json:"extended,omitempty"`
}

// batchEstimateResponse answers a Queries batch: one result per query, in
// request order, all valid queries computed against the same view. A
// malformed query yields a result whose Error field is set instead of
// failing the whole batch - fan-out aggregators depend on the other
// queries still being answered.
type batchEstimateResponse struct {
	Results []*estimateResponse `json:"results"`
	partialReport
}

// partialReport is a degraded cluster read's report, stamped on single
// and batch estimate responses alike; all zero (omitted) on a full
// answer.
type partialReport struct {
	// Partial reports a degraded cluster read: the estimate merges only
	// the reachable partitions (a bounded under-count; sketches are
	// linear, so the answer is exact over the partitions it did reach).
	Partial bool `json:"partial,omitempty"`
	// PartitionsAnswered is how many partitions the merge includes.
	PartitionsAnswered int `json:"partitions_answered,omitempty"`
	// PartitionsTotal is the estimator's partition count.
	PartitionsTotal int `json:"partitions_total,omitempty"`
}

type estimateResponse struct {
	Kind string `json:"kind"`
	// Error reports a per-query failure inside a batch response; when set,
	// the other fields are meaningless.
	Error string `json:"error,omitempty"`
	// Cardinality is the boosted estimate clamped to be non-negative.
	Cardinality float64 `json:"cardinality"`
	// Value is the raw boosted estimate (median of group means).
	Value float64 `json:"value"`
	// Mean is the grand mean over all atomic instances.
	Mean float64 `json:"mean"`
	// StdErr estimates the standard error of one group mean.
	StdErr float64 `json:"stdErr"`
	// Selectivity is Cardinality normalized by the input sizes, when the
	// inputs are non-empty.
	Selectivity *float64         `json:"selectivity,omitempty"`
	Counts      map[string]int64 `json:"counts"`
	Instances   int              `json:"instances"`
	partialReport
}

type infoResponse struct {
	Name       string           `json:"name"`
	Kind       string           `json:"kind"`
	Config     any              `json:"config"`
	Counts     map[string]int64 `json:"counts"`
	Instances  int              `json:"instances"`
	SpaceWords int              `json:"spaceWords"`
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds request bodies (snapshots of large synopses are a
// few MB; update batches should be chunked by the client).
const maxBodyBytes = 64 << 20

// readBody reads a (possibly gzip-encoded) binary request body. The
// decompressed size is bounded by maxBodyBytes like the raw size, so a
// tiny gzip bomb cannot smuggle an oversized snapshot past the limit.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var rd io.Reader = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(rd)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad gzip body: %v", err)
			return nil, false
		}
		defer gz.Close()
		rd = io.LimitReader(gz, maxBodyBytes+1)
	}
	data, err := io.ReadAll(rd)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return nil, false
	}
	if len(data) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "decompressed body exceeds %d bytes", maxBodyBytes)
		return nil, false
	}
	return data, true
}

// writeSnapshot serves est's SPE1 snapshot with a strong ETag (see
// validators.go) honoring If-None-Match without marshaling, and gzip
// content encoding when an external client accepts it. Node-to-node
// reads always get the identity body: on a LAN hop, compressing a few-KB
// partition on the owner and inflating it on the router costs more than
// the bytes it saves, and Go's transport asks for gzip by default.
func writeSnapshot(w http.ResponseWriter, r *http.Request, est servable) {
	// Strong ETags are representation-specific (RFC 9110): the gzip
	// variant gets its own tag (nginx's convention) so a cache can never
	// pair an identity body with a gzip validator or vice versa.
	gz := acceptsGzip(r) && !isInternal(r)
	variant := func(tag string) string {
		if gz {
			return tag[:len(tag)-1] + `-gzip"`
		}
		return tag
	}
	match := r.Header.Get("If-None-Match")
	tag, data, err := readValidated(est, func(tag string) bool {
		return match != "" && etagMatches(match, variant(tag))
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if tag != "" {
		w.Header().Set("ETag", variant(tag))
	}
	w.Header().Set("Vary", "Accept-Encoding")
	w.Header().Set("X-Spatial-Kind", est.kind().String())
	if data == nil {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if gz {
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		zw.Write(data)
		zw.Close()
		return
	}
	w.Write(data)
}

// acceptsGzip reports whether the request's Accept-Encoding accepts
// gzip - honoring "gzip;q=0", which explicitly refuses it (RFC 9110).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		q, ok := strings.CutPrefix(strings.ReplaceAll(strings.TrimSpace(params), " ", ""), "q=")
		if ok {
			if v, err := strconv.ParseFloat(q, 64); err == nil && v <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

// etagMatches implements If-None-Match comparison against one strong tag.
func etagMatches(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// errAlreadyExists reports a create against a taken name.
var errAlreadyExists = errors.New("estimator already exists")

// errNotFoundLocal reports a mutation against a name this node does not
// hold.
var errNotFoundLocal = errors.New("estimator not found")

// readOnlyReplicaMsg answers external mutations on an active follower.
const readOnlyReplicaMsg = "node is a read-only replica (POST /admin/promote to take over)"

// createLocal builds and registers an estimator: a registry-binding
// change, so it holds the mutation gate exclusively and is logged before
// it becomes visible. With enforceBudget set (external creates; internal
// shard creates were budgeted at the routing node) the tenant's memory
// budget is checked under the registry lock, so concurrent creates
// cannot slip past it together.
func (s *Server) createLocal(ctx context.Context, req *createRequest, enforceBudget bool) (servable, error) {
	est, err := buildServable(req.Kind, req.Config)
	if err != nil {
		return nil, err
	}
	if gate := s.mutGate(); gate != nil {
		gate.Lock()
		defer gate.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.ests[req.Name]; exists {
		return nil, fmt.Errorf("%w: %q", errAlreadyExists, req.Name)
	}
	if enforceBudget {
		if err := s.checkBudgetLocked(req.Name, int64(est.spaceWords())); err != nil {
			return nil, err
		}
	}
	if s.persist != nil {
		if err := s.persist.logCreate(ctx, req); err != nil {
			return nil, err
		}
	}
	s.ests[req.Name] = est
	return est, nil
}

// deleteLocal removes an estimator binding (logged, exclusive gate),
// reporting whether it existed.
func (s *Server) deleteLocal(ctx context.Context, name string) (bool, error) {
	if gate := s.mutGate(); gate != nil {
		gate.Lock()
		defer gate.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ests[name]; !ok {
		return false, nil
	}
	if s.persist != nil {
		if err := s.persist.logDelete(ctx, name); err != nil {
			return true, err
		}
	}
	delete(s.ests, name)
	// Ingest watermarks die with the binding: a recreated estimator must
	// not inherit them (WAL replay and replicas drop them at the same
	// point, so the mark state is identical however a node got here).
	// Deleting a shard also drops the base name's routing-level marks -
	// they are a non-durable fast path whose loss is always safe.
	s.sessions.dropKey(name)
	if base, _, ok := cluster.SplitShardName(name); ok {
		s.sessions.dropKey(base)
	}
	return true, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "estimator name is required")
		return
	}
	s.serveCreate(w, r, &req)
}

// serveCreate finishes a decoded create - shared by the flat route (the
// key may carry an explicit "tenant/" prefix) and the tenant-scoped
// route (which qualified the key already). External creates validate the
// key syntax, require a registered tenant and enforce its budget;
// internal shard creates skip all three (the routing node did them).
func (s *Server) serveCreate(w http.ResponseWriter, r *http.Request, req *createRequest) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	external := !isInternal(r)
	if external {
		if err := validateCreateKey(req.Name); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.requireKnownTenant(req.Name); err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
	}
	if s.cluster != nil && external {
		s.cluster.routeCreate(r.Context(), w, req)
		return
	}
	est, err := s.createLocal(r.Context(), req, external)
	if err != nil {
		var be *budgetError
		if errors.As(err, &be) {
			writeBudgetError(w, be)
			return
		}
		status := http.StatusBadRequest
		var lf *logFailure
		switch {
		case errors.Is(err, errAlreadyExists):
			status = http.StatusConflict
		case errors.As(err, &lf):
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, infoResponse{
		Name: req.Name, Kind: est.kind().String(), Config: est.configJSON(),
		Counts: est.counts(), Instances: est.instances(), SpaceWords: est.spaceWords(),
	})
}

// listEntry is one row of an estimator listing.
type listEntry struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// listEstimators returns the sorted entries a listing request sees: this
// node's registry, or - for a client request on a cluster node - every
// node's registry with shard keys mapped back to their base names, which
// fails unless every node answers.
func (s *Server) listEstimators(r *http.Request) ([]listEntry, error) {
	if s.cluster != nil && !isInternal(r) {
		return s.cluster.listCluster(r.Context())
	}
	return s.localList(), nil
}

// localList returns this node's registry entries, sorted by name.
func (s *Server) localList() []listEntry {
	s.mu.RLock()
	out := make([]listEntry, 0, len(s.ests))
	for name, e := range s.ests {
		out = append(out, listEntry{Name: name, Kind: e.kind().String()})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list, err := s.listEstimators(r)
	if err != nil {
		writeError(w, http.StatusBadGateway, "cluster list incomplete: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"estimators": list})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.cluster != nil && !isInternal(r) && !cluster.IsShardName(name) {
		s.cluster.routeInfo(r.Context(), w, name)
		return
	}
	est, ok := s.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no estimator %q", name)
		return
	}
	writeJSON(w, http.StatusOK, infoResponse{
		Name: name, Kind: est.kind().String(), Config: est.configJSON(),
		Counts: est.counts(), Instances: est.instances(), SpaceWords: est.spaceWords(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	name := r.PathValue("name")
	if s.cluster != nil && !isInternal(r) && !cluster.IsShardName(name) {
		s.cluster.routeDelete(r.Context(), w, name)
		return
	}
	found, err := s.deleteLocal(r.Context(), name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "logging delete: %v", err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, "no estimator %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// handleUpdate applies a JSON batch of inserts or deletes. Every update,
// keyed or not, becomes one record batch on the write path
// (applyIngestBatch, or routeIngest in cluster mode), so it is validated
// whole before anything is logged or applied. An Idempotency-Key makes
// the batch exactly-once: the key becomes a single-batch session
// ("idem:<key>", seq 1) whose persisted watermark turns any retry of the
// same key into a durable no-op that still answers 200 (with Deduped
// set) for idemWindow after its last touch, at the owners of the update's
// partitions (a router keeps none). Keys are single-use by construction;
// reusing one replays the first request's acknowledgement, not its
// effect. Without a key the batch is sessionless: not deduplicated, and
// never resent by a router after an ambiguous failure.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	name := r.PathValue("name")
	var req updateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Op == "" {
		req.Op = "insert"
	}
	if req.Op != "insert" && req.Op != "delete" {
		writeError(w, http.StatusBadRequest, "op %q is neither insert nor delete", req.Op)
		return
	}
	var session string
	if key := r.Header.Get("Idempotency-Key"); key != "" && !isInternal(r) {
		if !validRequestID(key) {
			writeError(w, http.StatusBadRequest, "Idempotency-Key must be 1-64 log-safe characters")
			return
		}
		session = idemSessionPrefix + key
	}
	recs, err := updateRecords(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := ingest.Batch{Count: uint64(len(recs))}
	if session != "" {
		if len(recs) == 0 {
			writeError(w, http.StatusBadRequest, "idempotent update carries no rects or points")
			return
		}
		batch.Seq = 1
	}
	for _, rec := range recs {
		batch.Records = rec.AppendBinary(batch.Records)
	}
	routed := s.cluster != nil && !isInternal(r)
	if routed && session == "" && cluster.IsShardName(name) {
		writeError(w, http.StatusBadRequest, "shard keys are internal; update the base estimator name")
		return
	}
	var applied int
	var deduped bool
	if routed && !cluster.IsShardName(name) {
		applied, deduped, err = s.cluster.routeIngest(r.Context(), name, session, batch)
	} else {
		applied, deduped, err = s.applyIngestBatch(r.Context(), name, session, batch)
	}
	if err != nil {
		writeIngestError(w, err)
		return
	}
	var counts map[string]int64
	if est, ok := s.lookup(name); ok {
		counts = est.counts()
	}
	writeJSON(w, http.StatusOK, updateResponse{Applied: applied, Counts: counts, Deduped: deduped})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req estimateRequest
	if r.Method == http.MethodPost && r.ContentLength != 0 {
		if !decodeJSON(w, r, &req) {
			return
		}
	}
	if s.cluster != nil && !isInternal(r) && !cluster.IsShardName(name) {
		partialOK := r.URL.Query().Get("partial") == "ok"
		s.cluster.routeEstimate(r.Context(), w, name, &req, partialOK)
		return
	}
	est, ok := s.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no estimator %q", name)
		return
	}
	serveEstimate(w, est, &req, partialReport{})
}

// serveEstimate answers a decoded estimate request from one estimator -
// shared by the local path and the cluster's gathered path, which passes
// the report of a degraded read (zero for a full one).
func serveEstimate(w http.ResponseWriter, est servable, req *estimateRequest, rep partialReport) {
	if len(req.Queries) > 0 {
		if len(req.Query) > 0 {
			writeError(w, http.StatusBadRequest, "use either query or queries, not both")
			return
		}
		resp, err := est.estimateBatch(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp.partialReport = rep
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp, err := est.estimate(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp.partialReport = rep
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.cluster != nil && !isInternal(r) && !cluster.IsShardName(name) {
		// The cluster-wide snapshot: gather every partition and serve the
		// merged envelope - bit-identical to a single-node build of the
		// same update stream.
		est, _, err := s.cluster.gatherCached(r.Context(), name, false)
		if errors.Is(err, errNotFoundLocal) {
			writeError(w, http.StatusNotFound, "no estimator %q", name)
			return
		}
		if err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
		writeSnapshot(w, r, est)
		return
	}
	est, ok := s.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no estimator %q", name)
		return
	}
	if s.cluster != nil && cluster.IsShardName(name) && !s.cluster.owns(name) {
		// A reader of this shard here would race the rebalance that just
		// moved it; send it back to the map.
		writeError(w, http.StatusConflict, "%v", errNotOwner)
		return
	}
	writeSnapshot(w, r, est)
}

func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	name := r.PathValue("name")
	if s.cluster != nil && !isInternal(r) && !cluster.IsShardName(name) {
		writeError(w, http.StatusConflict,
			"snapshot PUT of a whole estimator is not supported in cluster mode; PUT individual shards or create and re-ingest")
		return
	}
	external := !isInternal(r)
	if external {
		if err := validateCreateKey(name); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.requireKnownTenant(name); err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
	}
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	est, err := restoreServable(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Replacing a binding excludes in-flight updates on the old estimator
	// (they re-verify the binding under the shared gate), so the log can
	// never apply an old object's update to the restored one on replay.
	// The snapshot bytes (up to 64 MB) are logged BEFORE taking the
	// registry lock: the exclusive gate already serializes this against
	// every other logged mutation, and holding s.mu across a group commit
	// would stall read traffic for the whole write.
	if gate := s.mutGate(); gate != nil {
		gate.Lock()
		defer gate.Unlock()
	}
	if external {
		// The budget delta of a replace is new minus old words; a shrink
		// always passes. Checked before the WAL append so a rejected PUT
		// leaves no log record.
		s.mu.RLock()
		var oldWords int64
		if old, okOld := s.ests[name]; okOld {
			oldWords = int64(old.spaceWords())
		}
		err := s.checkBudgetLocked(name, int64(est.spaceWords())-oldWords)
		s.mu.RUnlock()
		var be *budgetError
		if errors.As(err, &be) {
			writeBudgetError(w, be)
			return
		}
	}
	if s.persist != nil {
		if err := s.persist.logSnapshot(r.Context(), walOpPut, name, data); err != nil {
			writeError(w, http.StatusInternalServerError, "logging snapshot put: %v", err)
			return
		}
	}
	s.mu.Lock()
	s.ests[name] = est
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, infoResponse{
		Name: name, Kind: est.kind().String(), Config: est.configJSON(),
		Counts: est.counts(), Instances: est.instances(), SpaceWords: est.spaceWords(),
	})
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	name := r.PathValue("name")
	if s.cluster != nil && !isInternal(r) && !cluster.IsShardName(name) {
		writeError(w, http.StatusConflict,
			"merge into a partitioned estimator is not supported in cluster mode; merge into individual shards")
		return
	}
	est, ok := s.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no estimator %q", name)
		return
	}
	if !isInternal(r) {
		// A merge never grows the estimator (configs must match), but a
		// budget lowered below current usage still rejects further folds:
		// the tenant must shed estimators before adding mass.
		s.mu.RLock()
		err := s.checkBudgetLocked(name, 0)
		s.mu.RUnlock()
		var be *budgetError
		if errors.As(err, &be) {
			writeBudgetError(w, be)
			return
		}
	}
	data, okBody := readBody(w, r)
	if !okBody {
		return
	}
	err := s.withEstimator(name, est, func() error {
		if s.persist != nil {
			// Logged before the config check: a rejected merge replays as
			// the same deterministic rejection (see persist.go).
			if err := s.persist.logSnapshot(r.Context(), walOpMerge, name, data); err != nil {
				return err
			}
		}
		return est.mergeSnapshot(data)
	})
	var lf *logFailure
	if errors.As(err, &lf) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{Counts: est.counts()})
}

// handleCheckpoint forces a durable checkpoint; it answers 409 when the
// server runs without persistence.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.persist == nil {
		writeError(w, http.StatusConflict, "persistence is disabled (start with -data-dir)")
		return
	}
	res, err := s.persist.checkpoint(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// ---- geometry decoding ----

func decodeRects(in [][][2]uint64) []geo.HyperRect {
	rects := make([]geo.HyperRect, len(in))
	for i, r := range in {
		h := make(geo.HyperRect, len(r))
		for d, iv := range r {
			h[d] = geo.Interval{Lo: iv[0], Hi: iv[1]}
		}
		rects[i] = h
	}
	return rects
}

func decodePoints(in [][]uint64) []geo.Point {
	pts := make([]geo.Point, len(in))
	for i, p := range in {
		pts[i] = geo.Point(p)
	}
	return pts
}

func decodeQuery(q [][2]uint64) geo.HyperRect {
	h := make(geo.HyperRect, len(q))
	for d, iv := range q {
		h[d] = geo.Interval{Lo: iv[0], Hi: iv[1]}
	}
	return h
}

// estimateWire converts a library estimate plus context into the wire
// response. selDen is the product of the input sizes (0 when undefined).
func estimateWire(kind spatial.Kind, est spatial.Estimate, counts map[string]int64, selDen float64) *estimateResponse {
	resp := &estimateResponse{
		Kind:        kind.String(),
		Cardinality: est.Clamped(),
		Value:       est.Value,
		Mean:        est.Mean,
		StdErr:      est.StdErr(),
		Counts:      counts,
		Instances:   est.Instances,
	}
	if selDen > 0 {
		sel := est.Clamped() / selDen
		resp.Selectivity = &sel
	}
	return resp
}
