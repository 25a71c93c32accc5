package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	spatial "repro"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Observability layer: every server carries a metrics registry
// (internal/metrics, Prometheus text exposition, no dependencies) wired
// into GET /metrics, and every request carries a trace ID (X-Request-Id,
// accepted or generated) that flows into structured logs and cluster
// fan-out sub-requests so a scatter-gather can be reconstructed across
// nodes. /metrics bypasses admission control for the same reason
// /healthz does: observing an overloaded server is the point.

// headerRequestID is the trace-ID header, accepted from clients and
// propagated to fan-out sub-requests.
const headerRequestID = "X-Request-Id"

// serverMetrics bundles the server's instruments. It is always on - the
// hot-path cost is two clock reads, a histogram observe and a counter
// increment per request.
type serverMetrics struct {
	reg *metrics.Registry

	reqSeconds  *metrics.HistogramVec // endpoint, tenant
	reqTotal    *metrics.CounterVec   // endpoint, tenant, code
	admRejected *metrics.CounterVec   // reason, tenant

	walAppendSeconds *metrics.HistogramVec
	walFsyncSeconds  *metrics.HistogramVec
	walCommitRecords *metrics.CounterVec
	walCommitBytes   *metrics.CounterVec

	checkpointSeconds *metrics.HistogramVec
	checkpointTotal   *metrics.CounterVec // result

	breakerTransitions *metrics.CounterVec // peer, to
	readCacheHits      *metrics.Counter
	readCacheMisses    *metrics.Counter

	ingestBatches    *metrics.CounterVec   // tenant, result (acked | deduped)
	ingestRecords    *metrics.CounterVec   // tenant
	ingestStalls     *metrics.CounterVec   // tenant
	ingestAckSeconds *metrics.HistogramVec // tenant

	// streamMu guards streams, the per-tenant count of live ingest
	// connections behind the spatialserve_ingest_streams gauge.
	streamMu sync.Mutex
	streams  map[string]int
}

// newServerMetrics builds the registry and registers every family,
// including the scrape-time collectors that read library state (view
// cache) and cluster state (breaker gauges, admission inflight).
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		reqSeconds: reg.Histogram("spatialserve_request_seconds",
			"Request latency by endpoint and tenant.", nil, "endpoint", "tenant"),
		reqTotal: reg.Counter("spatialserve_requests_total",
			"Requests served, by endpoint, tenant and status code.", "endpoint", "tenant", "code"),
		admRejected: reg.Counter("spatialserve_admission_rejected_total",
			"Requests shed by admission control, by reason (rate, inflight, tenant_rate, tenant_inflight) and tenant.", "reason", "tenant"),
		walAppendSeconds: reg.Histogram("spatialserve_wal_append_seconds",
			"WAL append lag: enqueue to group-commit acknowledgement (includes the fsync when enabled).", nil),
		walFsyncSeconds: reg.Histogram("spatialserve_wal_fsync_seconds",
			"WAL fsync duration per group commit (fsync mode only).", nil),
		walCommitRecords: reg.Counter("spatialserve_wal_commit_records_total",
			"Records acknowledged by WAL group commits."),
		walCommitBytes: reg.Counter("spatialserve_wal_commit_bytes_total",
			"Framed bytes written by WAL group commits."),
		checkpointSeconds: reg.Histogram("spatialserve_checkpoint_seconds",
			"Checkpoint duration, cut to durable manifest.", nil),
		checkpointTotal: reg.Counter("spatialserve_checkpoint_total",
			"Checkpoints by result.", "result"),
		breakerTransitions: reg.Counter("spatialserve_breaker_transitions_total",
			"Circuit-breaker state changes by peer and new state.", "peer", "to"),
		ingestBatches: reg.Counter("spatialserve_ingest_batches_total",
			"Streaming ingest batches by tenant and result: acked (applied and durable) or deduped (at-or-below the session watermark, dropped and re-acked).", "tenant", "result"),
		ingestRecords: reg.Counter("spatialserve_ingest_records_total",
			"Records applied through streaming ingest, by tenant.", "tenant"),
		ingestStalls: reg.Counter("spatialserve_ingest_stalls_total",
			"Stream batches that waited on admission control (backpressure), by tenant.", "tenant"),
		ingestAckSeconds: reg.Histogram("spatialserve_ingest_ack_seconds",
			"Streaming ingest ack latency: batch frame read to ack written (includes WAL commit).", nil, "tenant"),
		streams: make(map[string]int),
	}
	rc := reg.Counter("spatialserve_cluster_readcache_events_total",
		"Cluster read-cache outcomes: hit means every partition revalidated 304 and the cached merge was reused.", "outcome")
	m.readCacheHits = rc.With("hit")
	m.readCacheMisses = rc.With("miss")

	// Pre-touch the label-less WAL instruments so the series exist at
	// zero from the first scrape - dashboards and the CI smoke can rely
	// on their presence instead of inferring "no data yet" from absence.
	m.walAppendSeconds.With()
	m.walFsyncSeconds.With()
	m.walCommitRecords.With()
	m.walCommitBytes.With()
	m.checkpointSeconds.With()

	reg.CounterFunc("spatialserve_viewcache_hits_total",
		"Library epoch view-cache hits (reads served from an adopted cached view).", nil,
		func(emit func([]string, float64)) {
			h, _ := spatial.ViewCacheStats()
			emit(nil, float64(h))
		})
	reg.CounterFunc("spatialserve_viewcache_misses_total",
		"Library epoch view-cache misses (reads that rebuilt the merged view).", nil,
		func(emit func([]string, float64)) {
			_, mi := spatial.ViewCacheStats()
			emit(nil, float64(mi))
		})
	reg.GaugeFunc("spatialserve_breaker_state",
		"Per-peer circuit-breaker state: 0 closed, 1 half-open, 2 open.", []string{"peer"},
		func(emit func([]string, float64)) {
			c := s.cluster
			if c == nil || c.health == nil {
				return
			}
			for _, nh := range c.health.Snapshot() {
				emit([]string{nh.Node}, breakerStateValue(nh.State))
			}
		})
	reg.GaugeFunc("spatialserve_peer_latency_ewma_ms",
		"Per-peer EWMA request latency in milliseconds.", []string{"peer"},
		func(emit func([]string, float64)) {
			c := s.cluster
			if c == nil || c.health == nil {
				return
			}
			for _, nh := range c.health.Snapshot() {
				emit([]string{nh.Node}, nh.EWMALatencyMs)
			}
		})
	reg.GaugeFunc("spatialserve_ingest_streams",
		"Live streaming ingest connections by tenant.", []string{"tenant"},
		func(emit func([]string, float64)) {
			m.streamMu.Lock()
			defer m.streamMu.Unlock()
			for tenant, n := range m.streams {
				emit([]string{tenant}, float64(n))
			}
		})
	reg.GaugeFunc("spatialserve_ingest_sessions",
		"Ingest sessions with a tracked high-water mark (bounded table).", nil,
		func(emit func([]string, float64)) {
			s.sessions.mu.Lock()
			n := s.sessions.n
			s.sessions.mu.Unlock()
			emit(nil, float64(n))
		})
	reg.GaugeFunc("spatialserve_inflight_requests",
		"Currently admitted requests by class (admission control only).", []string{"class"},
		func(emit func([]string, float64)) {
			a := s.admit
			if a == nil {
				return
			}
			emit([]string{"read"}, float64(a.reads.Load()))
			emit([]string{"write"}, float64(a.writes.Load()))
		})
	return m
}

// breakerStateValue maps a breaker state name to its gauge value.
func breakerStateValue(state string) float64 {
	switch state {
	case cluster.BreakerHalfOpen.String():
		return 1
	case cluster.BreakerOpen.String():
		return 2
	}
	return 0
}

// admissionRejected counts one shed request.
func (m *serverMetrics) admissionRejected(reason, tenant string) {
	if tenant == "" {
		tenant = "none"
	}
	m.admRejected.With(reason, tenant).Inc()
}

// observeWALCommit is the wal.Options.OnCommit observer: fsync lag and
// batch volume per group commit.
func (m *serverMetrics) observeWALCommit(st wal.CommitStats) {
	if st.SyncDuration > 0 {
		m.walFsyncSeconds.With().Observe(st.SyncDuration.Seconds())
	}
	m.walCommitRecords.With().Add(uint64(st.Records))
	m.walCommitBytes.With().Add(uint64(st.Bytes))
}

// streamStarted registers one live ingest connection under its tenant.
func (m *serverMetrics) streamStarted(tenant string) {
	m.streamMu.Lock()
	m.streams[tenant]++
	m.streamMu.Unlock()
}

// streamEnded drops a live ingest connection, removing exhausted tenant
// entries so the gauge reports zero by absence, not forever-zero rows.
func (m *serverMetrics) streamEnded(tenant string) {
	m.streamMu.Lock()
	if m.streams[tenant]--; m.streams[tenant] <= 0 {
		delete(m.streams, tenant)
	}
	m.streamMu.Unlock()
}

// observeIngestBatch counts one stream batch outcome.
func (m *serverMetrics) observeIngestBatch(tenant string, deduped bool, records int) {
	result := "acked"
	if deduped {
		result = "deduped"
	}
	m.ingestBatches.With(tenant, result).Inc()
	if records > 0 {
		m.ingestRecords.With(tenant).Add(uint64(records))
	}
}

// ingestStalled counts one batch that waited on admission.
func (m *serverMetrics) ingestStalled(tenant string) {
	m.ingestStalls.With(tenant).Inc()
}

// observeIngestAck records one batch's read-to-ack latency.
func (m *serverMetrics) observeIngestAck(tenant string, d time.Duration) {
	m.ingestAckSeconds.With(tenant).Observe(d.Seconds())
}

// observeBreaker is the cluster.HealthOptions.OnTransition observer.
func (m *serverMetrics) observeBreaker(node string, _, to cluster.BreakerState) {
	m.breakerTransitions.With(node, to.String()).Inc()
}

// handleMetrics serves the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// statusRecorder captures the response status for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// classifyEndpoint maps a request to a bounded endpoint label - the
// route shape, never raw client paths, so label cardinality stays fixed.
func classifyEndpoint(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/healthz":
		return "healthz"
	case p == "/readyz":
		return "readyz"
	case p == "/metrics":
		return "metrics"
	case strings.HasPrefix(p, "/admin/"):
		return "admin"
	case p == "/v1/ingest":
		return "ingest"
	case p == "/v1/tenants":
		return "tenant_config"
	case p == cluster.PeerPath:
		// One request per peer connection, counted when it closes; the
		// reads on it count as snapshot_get (answerPeer).
		return "peer"
	}
	// Tenant-scoped estimator routes re-dispatch through the flat routes;
	// classify both by their operation suffix.
	isTenants := strings.HasPrefix(r.URL.EscapedPath(), "/v1/tenants/")
	isEsts := strings.HasPrefix(r.URL.EscapedPath(), "/v1/estimators")
	if !isTenants && !isEsts {
		return "other"
	}
	if isTenants && !strings.Contains(strings.TrimPrefix(r.URL.EscapedPath(), "/v1/tenants/"), "/") {
		return "tenant_config"
	}
	if isTenants && strings.HasSuffix(p, "/estimators") {
		if r.Method == http.MethodPost {
			return "create"
		}
		return "list"
	}
	switch {
	case strings.HasSuffix(p, "/update"):
		return "update"
	case strings.HasSuffix(p, "/estimate"):
		return "estimate"
	case strings.HasSuffix(p, "/snapshot"):
		if r.Method == http.MethodPut {
			return "snapshot_put"
		}
		return "snapshot_get"
	case strings.HasSuffix(p, "/merge"):
		return "merge"
	case strings.HasSuffix(p, "/ingest"):
		return "ingest"
	case p == "/v1/estimators":
		if r.Method == http.MethodPost {
			return "create"
		}
		return "list"
	case r.Method == http.MethodDelete:
		return "delete"
	default:
		return "info"
	}
}

// tenantLabel returns the bounded metric label for tenant t: "default"
// for the default tenant or none, a registered tenant's name, or "other"
// for anything unregistered (so hostile paths cannot mint unbounded label
// values).
func (s *Server) tenantLabel(t string) string {
	if t == "" || t == DefaultTenant {
		return DefaultTenant
	}
	if s.tenants.get(t) != nil {
		return t
	}
	return "other"
}

// ---- trace IDs ----

// ridKey is the context key carrying the request's trace ID.
type ridKey struct{}

// requestIDFrom returns the trace ID stored in ctx, empty when absent.
func requestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// newRequestID mints a 16-hex-digit random trace ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-" + strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}

// validRequestID bounds accepted client trace IDs: 1-64 characters from
// a log-safe alphabet, so hostile values cannot corrupt log lines.
func validRequestID(rid string) bool {
	if rid == "" || len(rid) > 64 {
		return false
	}
	for _, c := range rid {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// traceRequest accepts or mints the request's trace ID, reflects it on
// the response and returns the request context carrying it for fan-out
// propagation and logging. An incoming W3C traceparent header is parsed
// into the context as the remote parent, so the root span opened by
// ServeHTTP joins the caller's trace instead of starting a new one.
func traceRequest(w http.ResponseWriter, r *http.Request) context.Context {
	rid := r.Header.Get(headerRequestID)
	if !validRequestID(rid) {
		rid = newRequestID()
	}
	w.Header().Set(headerRequestID, rid)
	ctx := context.WithValue(r.Context(), ridKey{}, rid)
	if id, parent, ok := trace.ParseTraceparent(r.Header.Get(headerTraceparent)); ok {
		ctx = trace.ContextWithRemote(ctx, id, parent)
	}
	return ctx
}
