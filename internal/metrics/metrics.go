// Package metrics is a dependency-free instrumentation library with
// Prometheus text exposition. It provides the three classic instrument
// kinds - monotone counters, settable gauges and fixed-bucket histograms
// - each optionally split by a static label set, plus callback-backed
// variants whose values are read at scrape time. A Registry collects
// instruments and renders them in Prometheus text format (version 0.0.4:
// `# HELP` / `# TYPE` headers followed by one sample per series).
//
// Hot-path cost is one atomic add for counters and gauges and one binary
// search plus two atomic adds for histograms; labeled lookups take a
// read-locked map hit. There are no background goroutines and no
// third-party imports, so the package is safe to embed in servers that
// must not grow dependencies.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default histogram bucket ladder in seconds, spanning
// 100us..10s the way serving latencies spread: sub-millisecond cache
// hits, millisecond folds, multi-second fan-out stalls.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// A Registry owns a set of named metric families and renders them as
// Prometheus text. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams []*family // exposition order = registration order
	seen map[string]bool
}

// family is one named metric: a TYPE, a HELP string, a label schema and
// the live series keyed by joined label values.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string

	mu     sync.RWMutex
	series map[string]metric // key = appendLabelKey(nil, values)
	order  []string          // stable exposition order = creation order

	collect func(emit func(labelValues []string, value float64)) // callback families
	buckets []float64                                            // histogram families
}

// metric is the per-series state behind a family.
type metric interface {
	sample() sampleSet
}

// sampleSet carries the rendered values for one series: plain value for
// counters/gauges, bucket counts + sum + count for histograms.
type sampleSet struct {
	value     float64
	isHisto   bool
	buckets   []uint64 // cumulative, aligned with family.buckets, +Inf appended
	sum       float64
	count     uint64
	exemplars []*Exemplar // per bucket (non-cumulative), nil entries skipped
}

// An Exemplar links one bucket of a histogram series to the trace that
// produced a recent observation in it. Rendered as a companion
// `<name>_exemplar` gauge family (classic text format has no native
// exemplar syntax, and the companion block stays Lint-clean) whose
// series carry the histogram's labels plus `le` and `trace_id`, with
// the observed value as the sample.
type Exemplar struct {
	// TraceID is the hex trace ID behind the observation.
	TraceID string
	// Value is the observed value (same unit as the histogram).
	Value float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

// register adds a family, panicking on duplicate or invalid names -
// metric registration is programmer-controlled, so a bad name is a bug.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic("metrics: invalid metric name " + strconv.Quote(f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic("metrics: invalid label name " + strconv.Quote(l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic("metrics: duplicate metric " + f.name)
	}
	r.seen[f.name] = true
	f.series = make(map[string]metric)
	r.fams = append(r.fams, f)
	return f
}

// Counter registers a monotone counter family with the given label
// schema (no labels = a single series) and returns its vector handle.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// Gauge registers a settable gauge family with the given label schema
// and returns its vector handle.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(&family{name: name, help: help, typ: "gauge", labels: labels})}
}

// Histogram registers a fixed-bucket histogram family. buckets must be
// strictly increasing upper bounds (in the observed unit, conventionally
// seconds); nil means DefBuckets. The implicit +Inf bucket is added
// automatically.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic("metrics: histogram buckets must be strictly increasing")
		}
	}
	return &HistogramVec{fam: r.register(&family{
		name: name, help: help, typ: "histogram",
		labels: labels, buckets: buckets,
	})}
}

// CounterFunc registers a counter family whose series are produced by fn
// at scrape time: fn calls emit once per series (labelValues must match
// the label schema length). Use it to surface counters that already live
// elsewhere (e.g. cache hit totals kept as atomics in a library).
func (r *Registry) CounterFunc(name, help string, labels []string, fn func(emit func(labelValues []string, value float64))) {
	r.register(&family{name: name, help: help, typ: "counter", labels: labels, collect: fn})
}

// GaugeFunc registers a gauge family whose series are produced by fn at
// scrape time, like CounterFunc but with gauge semantics.
func (r *Registry) GaugeFunc(name, help string, labels []string, fn func(emit func(labelValues []string, value float64))) {
	r.register(&family{name: name, help: help, typ: "gauge", labels: labels, collect: fn})
}

// A CounterVec is a family of monotone counters split by label values.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, creating it on
// first use. The value count must match the registered label schema.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.lookup(labelValues, func() metric { return new(Counter) }).(*Counter)
}

// A GaugeVec is a family of gauges split by label values.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.lookup(labelValues, func() metric { return new(Gauge) }).(*Gauge)
}

// A HistogramVec is a family of histograms split by label values.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	f := v.fam
	return f.lookup(labelValues, func() metric {
		return &Histogram{
			bounds:    f.buckets,
			counts:    make([]atomic.Uint64, len(f.buckets)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(f.buckets)+1),
		}
	}).(*Histogram)
}

// lookup finds or creates the series for the joined label values.
func (f *family) lookup(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	// The key is built on the stack: finding an existing series - every
	// call on a request path after the first - allocates nothing.
	var buf [128]byte
	key := appendLabelKey(buf[:0], values)
	f.mu.RLock()
	m, ok := f.series[string(key)]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.series[string(key)]; ok {
		return m
	}
	m = mk()
	k := string(key)
	f.series[k] = m
	f.order = append(f.order, k)
	return m
}

// A Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be non-negative; counters never go down).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) sample() sampleSet { return sampleSet{value: float64(c.v.Load())} }

// A Gauge is a value that can go up and down, stored as float bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) sample() sampleSet { return sampleSet{value: g.Value()} }

// A Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1; last = +Inf
	sumBits   atomic.Uint64
	count     atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1, last-write-wins
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the +Inf bucket catches
	// everything past the ladder.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveExemplar records one observation and pins it as the exemplar
// for the bucket it lands in (last write wins). traceID links the
// bucket straight to a retained trace; callers should pass only IDs
// that are actually retrievable. One atomic pointer store beyond
// Observe's cost.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) sample() sampleSet {
	s := sampleSet{isHisto: true, buckets: make([]uint64, len(h.counts))}
	var cum uint64
	var anyEx bool
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.buckets[i] = cum
		if h.exemplars[i].Load() != nil {
			anyEx = true
		}
	}
	if anyEx {
		s.exemplars = make([]*Exemplar, len(h.exemplars))
		for i := range h.exemplars {
			s.exemplars[i] = h.exemplars[i].Load()
		}
	}
	s.count = h.count.Load()
	s.sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format. Families appear in registration order; series within
// a family in creation order (callback families in emission order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			f.collect(func(labelValues []string, value float64) {
				if len(labelValues) != len(f.labels) {
					panic("metrics: " + f.name + " collector emitted wrong label count")
				}
				writeSample(&b, f.name, f.labels, labelValues, "", value)
			})
		} else {
			f.mu.RLock()
			keys := make([]string, len(f.order))
			copy(keys, f.order)
			sams := make([]sampleSet, len(keys))
			for i, k := range keys {
				sams[i] = f.series[k].sample()
			}
			f.mu.RUnlock()
			var exB strings.Builder
			for i, k := range keys {
				values := splitKey(k, len(f.labels))
				s := sams[i]
				if !s.isHisto {
					writeSample(&b, f.name, f.labels, values, "", s.value)
					continue
				}
				for bi, cum := range s.buckets {
					le := "+Inf"
					if bi < len(f.buckets) {
						le = formatFloat(f.buckets[bi])
					}
					writeSample(&b, f.name+"_bucket", append(f.labels, "le"), append(values, le), "", float64(cum))
					if ex := exemplarAt(s.exemplars, bi); ex != nil {
						writeSample(&exB, f.name+"_exemplar",
							append(f.labels, "le", "trace_id"),
							append(values, le, ex.TraceID), "", ex.Value)
					}
				}
				writeSample(&b, f.name+"_sum", f.labels, values, "", s.sum)
				writeSample(&b, f.name+"_count", f.labels, values, "", float64(s.count))
			}
			if exB.Len() > 0 {
				// Companion exemplar family: classic text format only,
				// so exemplars are their own gauge block (see Exemplar).
				fmt.Fprintf(&b, "# HELP %s_exemplar Trace-linked recent observation per %s bucket.\n", f.name, f.name)
				fmt.Fprintf(&b, "# TYPE %s_exemplar gauge\n", f.name)
				b.WriteString(exB.String())
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// exemplarAt returns the exemplar pinned at bucket bi, nil for series
// without exemplars.
func exemplarAt(exes []*Exemplar, bi int) *Exemplar {
	if bi >= len(exes) {
		return nil
	}
	return exes[bi]
}

// writeSample renders one `name{labels} value` line.
func writeSample(b *strings.Builder, name string, labels, values []string, _ string, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// appendLabelKey appends label values to dst joined by a separator that
// cannot appear in a value after escaping (0xff is invalid UTF-8, fine
// for a map key).
func appendLabelKey(dst []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			dst = append(dst, 0xff)
		}
		dst = append(dst, v...)
	}
	return dst
}

// splitKey reverses appendLabelKey for n label values.
func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, "\xff", n)
}

// formatFloat renders a sample value the way Prometheus expects: integral
// values without an exponent, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_][a-zA-Z0-9_]* (colons are reserved for recording rules).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
