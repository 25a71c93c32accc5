package main

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"repro/internal/metrics"
)

// Observability contract tests: the exposition is structurally valid
// Prometheus text, the core series exist after traffic, /metrics keeps
// answering while admission control sheds everything else, and trace IDs
// are accepted or minted per request.

// scrape fetches /metrics through the full middleware stack.
func scrape(t *testing.T, srv *Server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("exposition content type %q", ct)
	}
	return rec.Body.Bytes()
}

func TestMetricsExpositionLintsAndHasCoreSeries(t *testing.T) {
	srv := NewServer()
	createJoin(t, srv, "m", 1<<10)
	mustStatus(t, do(t, srv, "GET", "/v1/estimators/m", nil), http.StatusOK)
	mustStatus(t, do(t, srv, "GET", "/v1/estimators/m/estimate?left=0,10&right=0,10", nil), http.StatusOK)
	mustStatus(t, do(t, srv, "GET", "/v1/estimators/nope", nil), http.StatusNotFound)

	body := scrape(t, srv)
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	for _, name := range []string{
		"spatialserve_request_seconds",
		"spatialserve_requests_total",
		"spatialserve_viewcache_hits_total",
		"spatialserve_viewcache_misses_total",
	} {
		if !metrics.HasSeries(body, name) {
			t.Errorf("core series %s missing from exposition", name)
		}
	}
	// Request counters carry the bounded endpoint label and the status.
	if !containsSeriesWithLabels(string(body), "spatialserve_requests_total", `endpoint="estimate"`, `code="200"`) {
		t.Errorf("no estimate/200 sample:\n%s", body)
	}
	if !containsSeriesWithLabels(string(body), "spatialserve_requests_total", `code="404"`) {
		t.Errorf("404 responses not counted:\n%s", body)
	}
}

// TestMetricsAnswersDuring429Storm is the /metrics-exemption acceptance
// test: with the token bucket fully drained and client traffic shedding,
// the exposition endpoint still answers 200 and reports the sheds.
func TestMetricsAnswersDuring429Storm(t *testing.T) {
	srv := NewServer()
	srv.EnableAdmission(AdmitOptions{ShedQPS: 0.001, ShedBurst: 1})
	shed := 0
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/estimators", nil))
		if rec.Code == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("storm produced no 429s; the test premise is broken")
	}
	body := scrape(t, srv) // must not itself be shed
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("exposition during overload fails lint: %v", err)
	}
	if !containsSeriesWithLabels(string(body), "spatialserve_admission_rejected_total", `reason="rate"`) {
		t.Fatalf("sheds not visible in exposition:\n%s", body)
	}
	// 429 responses are themselves counted, and the inflight gauge (only
	// emitted once admission control is on) is present.
	if !containsSeriesWithLabels(string(body), "spatialserve_requests_total", `code="429"`) {
		t.Fatalf("429 responses not counted:\n%s", body)
	}
	if !metrics.HasSeries(body, "spatialserve_inflight_requests") {
		t.Fatalf("inflight gauge missing with admission enabled:\n%s", body)
	}
}

func TestTraceIDAcceptedOrMinted(t *testing.T) {
	srv := NewServer()
	// A well-formed client ID is echoed verbatim.
	req := httptest.NewRequest("GET", "/v1/estimators", nil)
	req.Header.Set(headerRequestID, "req-1234.abc:XYZ")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if got := rec.Header().Get(headerRequestID); got != "req-1234.abc:XYZ" {
		t.Fatalf("valid trace ID rewritten to %q", got)
	}
	// Garbage (here: a header-injection attempt) is replaced by a minted
	// 16-hex ID rather than reflected.
	req = httptest.NewRequest("GET", "/v1/estimators", nil)
	req.Header.Set(headerRequestID, "bad idÿ!")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	minted := rec.Header().Get(headerRequestID)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Fatalf("minted trace ID %q is not 16 hex chars", minted)
	}
	// Absent → minted too, and distinct per request.
	rec2 := httptest.NewRecorder()
	srv.ServeHTTP(rec2, httptest.NewRequest("GET", "/v1/estimators", nil))
	if other := rec2.Header().Get(headerRequestID); other == minted || other == "" {
		t.Fatalf("minted IDs not unique per request: %q vs %q", minted, other)
	}
}

// TestMetricsEndpointClassification pins the bounded-cardinality endpoint
// label: arbitrary client paths must not mint new label values.
func TestMetricsEndpointClassification(t *testing.T) {
	srv := NewServer()
	for i := 0; i < 5; i++ {
		do(t, srv, "GET", "/totally/unknown/path/"+string(rune('a'+i)), nil)
	}
	body := string(scrape(t, srv))
	if !containsSeriesWithLabels(body, "spatialserve_requests_total", `endpoint="other"`) {
		t.Fatalf("unknown paths not bucketed as other:\n%s", body)
	}
	if containsSeriesWithLabels(body, "spatialserve_requests_total", "unknown/path") {
		t.Fatalf("raw client path leaked into a label:\n%s", body)
	}
}

// TestMetricsTenantListLabel checks that GET /v1/tenants counts under
// endpoint="tenant_config", like every other tenant-config route, not
// under "other".
func TestMetricsTenantListLabel(t *testing.T) {
	srv := NewServer()
	mustStatus(t, do(t, srv, "GET", "/v1/tenants", nil), http.StatusOK)
	body := string(scrape(t, srv))
	if !containsSeriesWithLabels(body, "spatialserve_requests_total", `endpoint="tenant_config"`, `code="200"`) {
		t.Fatalf("GET /v1/tenants not counted as tenant_config:\n%s", body)
	}
	if containsSeriesWithLabels(body, "spatialserve_requests_total", `endpoint="other"`) {
		t.Fatalf("GET /v1/tenants counted as other:\n%s", body)
	}
}
