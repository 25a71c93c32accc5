package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// Admission control: the server's overload armor. Two independent gates
// run in front of the mux:
//
//   - per-endpoint-class max-inflight limits (reads and writes counted
//     separately, so a flood of slow scatter-gather reads cannot starve
//     ingest, and vice versa), and
//   - a token-bucket shedder bounding the total accepted request rate.
//
// Both answer 429 with a Retry-After header instead of queueing: an
// overloaded estimator service should shed load early and cheaply - the
// whole point of approximate answers is bounded cost, and an unbounded
// accept queue un-bounds it.
//
// Internal node-to-node requests (the X-Spatial-Internal header), health
// probes and admin endpoints BYPASS admission: shedding a peer's fan-out
// sub-request would amplify one client request into cluster-wide retry
// traffic, and an operator debugging an overload needs /admin to answer.

// AdmitOptions configures the server's admission control. Zero values
// disable the corresponding gate.
type AdmitOptions struct {
	// MaxInflightReads caps concurrently served read-class requests
	// (estimates, snapshots, info, list). 0 means unlimited.
	MaxInflightReads int
	// MaxInflightWrites caps concurrently served write-class requests
	// (create, update, delete, merge, snapshot PUT). 0 means unlimited.
	MaxInflightWrites int
	// ShedQPS is the token-bucket refill rate bounding the total accepted
	// request rate. 0 disables rate shedding.
	ShedQPS float64
	// ShedBurst is the bucket capacity (max burst above the steady rate).
	// 0 uses ShedQPS (a one-second burst).
	ShedBurst int
}

// admitter enforces AdmitOptions in front of the mux.
type admitter struct {
	opts AdmitOptions

	reads  atomic.Int64
	writes atomic.Int64

	bucket *tokenBucket
}

// tokenBucket is a clock-injectable token bucket, shared by the global
// shedder and the per-tenant rate gates.
type tokenBucket struct {
	mu     sync.Mutex
	qps    float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// newTokenBucket builds a full bucket refilling at qps with the given
// burst capacity (0 defaults to one second of qps, at least one token).
func newTokenBucket(qps float64, burst int) *tokenBucket {
	if burst <= 0 {
		burst = int(qps)
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{qps: qps, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

// take draws one token, reporting whether one was available.
func (b *tokenBucket) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.qps
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// newAdmitter builds an admitter; returns nil when every gate is disabled
// so ServeHTTP stays zero-cost for unconfigured servers.
func newAdmitter(opts AdmitOptions) *admitter {
	if opts.MaxInflightReads <= 0 && opts.MaxInflightWrites <= 0 && opts.ShedQPS <= 0 {
		return nil
	}
	a := &admitter{opts: opts}
	if opts.ShedQPS > 0 {
		a.bucket = newTokenBucket(opts.ShedQPS, opts.ShedBurst)
	}
	return a
}

// EnableAdmission installs admission control on the server. Call before
// serving traffic.
func (s *Server) EnableAdmission(opts AdmitOptions) {
	s.admit = newAdmitter(opts)
}

// admitExempt reports whether the request bypasses admission control:
// internal fan-out sub-requests and peer connections (whose reads are
// internal fan-out too), health probes, admin operations, profiling
// (when enabled via -pprof: an overloaded node is exactly the one worth
// profiling), and the streaming ingest upgrade - streams run their own
// per-batch blocking admission (acquireStreamBatch) so overload slows
// them down instead of 429-storming every connected writer into
// reconnect loops.
func admitExempt(r *http.Request) bool {
	if isInternal(r) {
		return true
	}
	p := r.URL.Path
	return p == "/healthz" || p == "/readyz" || p == "/metrics" || p == "/v1/ingest" || p == cluster.PeerPath ||
		strings.HasPrefix(p, "/admin/") || strings.HasPrefix(p, "/debug/pprof/")
}

// readClass reports whether the request is read-class: all GETs plus the
// POST estimate endpoint (a POST body carrying a query batch is still a
// read).
func readClass(r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/estimate")
}

// admit runs both gates. It returns a release func and true to serve, or
// writes the 429 itself and returns false. The caller must invoke release
// when the request finishes. m (optional) counts shed requests.
func (a *admitter) admit(w http.ResponseWriter, r *http.Request, m *serverMetrics) (release func(), ok bool) {
	if admitExempt(r) {
		return func() {}, true
	}
	if a.bucket != nil && !a.bucket.take() {
		if m != nil {
			m.admissionRejected("rate", requestTenant(r))
		}
		reject(w, retryAfterForRate(a.opts.ShedQPS))
		return nil, false
	}
	gate, limit := &a.reads, a.opts.MaxInflightReads
	if !readClass(r) {
		gate, limit = &a.writes, a.opts.MaxInflightWrites
	}
	if limit > 0 {
		if gate.Add(1) > int64(limit) {
			gate.Add(-1)
			if m != nil {
				m.admissionRejected("inflight", requestTenant(r))
			}
			reject(w, 1)
			return nil, false
		}
		return func() { gate.Add(-1) }, true
	}
	return func() {}, true
}

// acquireStreamBatch is the streaming-ingest admission gate: it BLOCKS
// until a rate token and a write slot are both available, up to
// maxWait. This is deliberate backpressure - a stalled stream stops
// reading frames, the client's credit window fills, and the writer
// slows to the server's pace with zero failed requests. waited reports
// whether the batch stalled at all (the backpressure metric); ok=false
// means the wait exceeded maxWait and the stream should be shed with a
// retryable overload error.
func (a *admitter) acquireStreamBatch(maxWait time.Duration) (release func(), waited bool, ok bool) {
	deadline := time.Now().Add(maxWait)
	for {
		if a.bucket == nil || a.bucket.take() {
			gate, limit := &a.writes, a.opts.MaxInflightWrites
			if limit <= 0 {
				return func() {}, waited, true
			}
			if gate.Add(1) <= int64(limit) {
				return func() { gate.Add(-1) }, waited, true
			}
			gate.Add(-1)
		}
		waited = true
		if time.Now().After(deadline) {
			return nil, true, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// retryAfterForRate suggests how long a shed client should wait: the time
// for one token to refill, rounded up to a whole second.
func retryAfterForRate(qps float64) int {
	if qps <= 0 {
		return 1
	}
	secs := int(1/qps) + 1
	if secs < 1 {
		secs = 1
	}
	return secs
}

// reject answers 429 + Retry-After - the admission contract: overload is
// reported immediately and cheaply, never by a slow timeout.
func reject(w http.ResponseWriter, retryAfterSecs int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	writeError(w, http.StatusTooManyRequests, "overloaded; retry after %ds", retryAfterSecs)
}

// ---- health and readiness ----

// readyResponse is the /readyz document: overall readiness plus the
// per-subsystem checks that produced it.
type readyResponse struct {
	// Ready is the conjunction of all checks.
	Ready bool `json:"ready"`
	// Checks maps each subsystem check to "ok" or its failure reason.
	Checks map[string]string `json:"checks"`
}

// handleReady serves readiness: recovery replay finished (implied by the
// server object existing - construction replays synchronously), the WAL
// appendable, the cluster map adopted, and - for replicas - bootstrap
// complete and the tail loop not wedged. Orchestrators gate traffic on
// it; liveness stays /healthz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := readyResponse{Ready: true, Checks: map[string]string{}}
	fail := func(check, reason string) {
		resp.Ready = false
		resp.Checks[check] = reason
	}
	if s.persist != nil {
		if err := s.persist.w.Err(); err != nil {
			fail("wal", err.Error())
		} else {
			resp.Checks["wal"] = "ok"
		}
	}
	if s.cluster != nil {
		if s.cluster.map_() == nil {
			fail("cluster_map", "no partition map adopted")
		} else {
			resp.Checks["cluster_map"] = "ok"
		}
	}
	if rs := s.replica; rs != nil {
		rs.mu.Lock()
		active, ready, wedged := rs.active, rs.ready, rs.wedged
		rs.mu.Unlock()
		switch {
		case active && !ready:
			fail("replica", "bootstrap in progress")
		case active && wedged:
			fail("replica", "replication wedged; restart to re-bootstrap")
		default:
			resp.Checks["replica"] = "ok"
		}
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
