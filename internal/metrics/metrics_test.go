package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("http_requests_total", "Total requests.", "endpoint", "code")
	reqs.With("estimate", "200").Add(3)
	reqs.With("estimate", "429").Inc()
	g := r.Gauge("inflight", "In-flight requests.")
	g.With().Set(2.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP http_requests_total Total requests.",
		"# TYPE http_requests_total counter",
		`http_requests_total{endpoint="estimate",code="200"} 3`,
		`http_requests_total{endpoint="estimate",code="429"} 1`,
		"# TYPE inflight gauge",
		"inflight 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("Lint rejected own exposition: %v", err)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "tenant")
	obs := h.With("a")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		obs.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`latency_seconds_bucket{tenant="a",le="0.01"} 1`,
		`latency_seconds_bucket{tenant="a",le="0.1"} 3`,
		`latency_seconds_bucket{tenant="a",le="1"} 4`,
		`latency_seconds_bucket{tenant="a",le="+Inf"} 5`,
		`latency_seconds_count{tenant="a"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `latency_seconds_sum{tenant="a"} 5.605`) {
		t.Errorf("unexpected sum:\n%s", out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("Lint rejected own exposition: %v", err)
	}
	if got := obs.Count(); got != 5 {
		t.Errorf("Count() = %d, want 5", got)
	}
}

func TestCallbackFamilies(t *testing.T) {
	r := NewRegistry()
	hits := uint64(7)
	r.CounterFunc("cache_hits_total", "Hits.", nil, func(emit func([]string, float64)) {
		emit(nil, float64(hits))
	})
	r.GaugeFunc("peer_state", "Breaker state.", []string{"peer"}, func(emit func([]string, float64)) {
		emit([]string{"n1"}, 0)
		emit([]string{"n2"}, 2)
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"cache_hits_total 7", `peer_state{peer="n1"} 0`, `peer_state{peer="n2"} 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("Lint rejected own exposition: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("odd_total", "Odd values.", "v")
	c.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `odd_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Errorf("Lint rejected escaped label: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x_total", "X again.")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	r.Counter("bad-name", "Dashes are illegal.")
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "N.", "who")
	h := r.Histogram("d_seconds", "D.", nil, "who")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			who := string(rune('a' + i%2))
			for j := 0; j < 1000; j++ {
				c.With(who).Inc()
				h.With(who).Observe(float64(j) / 1000)
			}
		}(i)
	}
	wg.Wait()
	if got := c.With("a").Value() + c.With("b").Value(); got != 8000 {
		t.Fatalf("counter total = %d, want 8000", got)
	}
	if got := h.With("a").Count() + h.With("b").Count(); got != 8000 {
		t.Fatalf("histogram total = %d, want 8000", got)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := []string{
		"no_type_header 1\n",
		"# TYPE x counter\nx{unclosed=\"v 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x bogus\n",
		"# TYPE 0bad counter\n0bad 1\n",
	}
	for _, c := range cases {
		if err := Lint([]byte(c)); err == nil {
			t.Errorf("Lint accepted malformed exposition %q", c)
		}
	}
}

func TestHasSeries(t *testing.T) {
	page := []byte("# TYPE a counter\na{x=\"1\"} 2\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.1\nh_count 1\n")
	if !HasSeries(page, "a") || !HasSeries(page, "h") {
		t.Error("HasSeries missed present series")
	}
	if HasSeries(page, "b") || HasSeries(page, "h_b") {
		t.Error("HasSeries matched absent series")
	}
}

// TestHistogramExemplars checks ObserveExemplar pins the trace to the
// right bucket, the companion _exemplar gauge family renders with its
// own HELP/TYPE, and the whole exposition stays Lint-clean.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	hv := r.Histogram("req_seconds", "Request latency.", []float64{0.01, 0.1, 1}, "endpoint")
	h := hv.With("update")
	h.Observe(0.005) // no exemplar
	h.ObserveExemplar(0.05, "0af7651916cd43dd8448eb211c80319c")
	h.ObserveExemplar(5, "deadbeefdeadbeefdeadbeefdeadbeef") // +Inf bucket

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("exposition with exemplars fails lint: %v\n%s", err, out)
	}
	if !HasSeries([]byte(out), "req_seconds_exemplar") {
		t.Fatalf("no req_seconds_exemplar series in:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE req_seconds_exemplar gauge",
		`req_seconds_exemplar{endpoint="update",le="0.1",trace_id="0af7651916cd43dd8448eb211c80319c"} 0.05`,
		`req_seconds_exemplar{endpoint="update",le="+Inf",trace_id="deadbeefdeadbeefdeadbeefdeadbeef"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="0.01",trace_id`) {
		t.Error("bucket without exemplar observations grew an exemplar series")
	}
	// Exemplar counts fold into the ordinary histogram samples.
	if !strings.Contains(out, `req_seconds_count{endpoint="update"} 3`) {
		t.Errorf("ObserveExemplar did not count as an observation:\n%s", out)
	}
	// Histograms with no exemplars emit no companion block.
	r2 := NewRegistry()
	r2.Histogram("quiet_seconds", "No exemplars.", nil).With().Observe(0.5)
	buf.Reset()
	if err := r2.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "_exemplar") {
		t.Errorf("exemplar block rendered without exemplars:\n%s", buf.String())
	}
}

// TestWithExistingSeriesAllocatesNothing: request paths look their
// series up on every call, so finding an existing one must not allocate.
func TestWithExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("requests_total", "Requests.", "endpoint", "tenant", "code")
	lat := r.Histogram("request_seconds", "Latency.", []float64{0.01, 0.1}, "endpoint", "tenant")
	reqs.With("estimate", "default", "200").Inc()
	lat.With("estimate", "default").Observe(0.02)
	if n := testing.AllocsPerRun(100, func() {
		reqs.With("estimate", "default", "200").Inc()
		lat.With("estimate", "default").Observe(0.02)
	}); n != 0 {
		t.Fatalf("looking up existing series allocates %v times", n)
	}
	if got := reqs.With("estimate", "default", "200").Value(); got != 102 {
		t.Fatalf("counter %d after 102 increments", got)
	}
}
