// Package trace is the dependency-free distributed-tracing core for the
// spatial estimator server: a span model (trace ID, span ID, parent,
// start/duration, bounded key=value attrs, error flag), W3C traceparent
// propagation helpers, and a per-node Tracer that keeps a bounded ring
// of completed traces with tail-based retention - errored and
// slow-beyond-threshold traces are always kept, the rest are
// probabilistically sampled. All retention decisions happen at trace
// completion, so the per-span hot path is two sharded mutex hops and an
// append.
//
// The package deliberately has no dependencies beyond the standard
// library and no exporter: traces are served by the owning process
// (spatialserve's /admin/trace) and stitched across nodes by trace ID.
package trace

import (
	"context"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one distributed trace: 16 random bytes, rendered
// as 32 lowercase hex digits on the wire (traceparent) and in JSON.
type TraceID [16]byte

// SpanID identifies one span within a trace: 8 random bytes, rendered
// as 16 lowercase hex digits.
type SpanID [8]byte

// String returns the 32-digit lowercase hex form of the trace ID.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-digit lowercase hex form of the span ID.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the trace ID is the all-zero (invalid) ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// NewTraceID mints a random non-zero trace ID. Callers outside a server
// (load generators, tests) use it to pre-assign a trace to an operation
// so the resulting server-side tree is retrievable by a known ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

// NewSpanID mints a random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s == (SpanID{}) {
		a := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(a >> (8 * i))
		}
	}
	return s
}

// ParseTraceID parses a 32-digit hex trace ID, rejecting the all-zero
// ID per the W3C trace-context rules.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// Traceparent renders the W3C traceparent header value for a trace and
// parent span: version 00, flags 01 (sampled).
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value, accepting any
// version and ignoring the flags. It rejects all-zero trace or span IDs.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	t, ok := ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	var s SpanID
	if _, err := hex.Decode(s[:], []byte(h[36:52])); err != nil || s == (SpanID{}) {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

// Attr is one bounded key=value annotation on a span.
type Attr struct {
	// K is the attribute key.
	K string `json:"k"`
	// V is the attribute value.
	V string `json:"v"`
}

// SpanData is one completed span as stored and served: the immutable
// record a Span turns into at End.
type SpanData struct {
	// TraceID is the owning trace, in hex.
	TraceID string `json:"trace_id"`
	// SpanID is this span's ID, in hex.
	SpanID string `json:"span_id"`
	// ParentID is the parent span's ID in hex, empty for a trace root.
	ParentID string `json:"parent_id,omitempty"`
	// Name is the operation name ("http update", "wal.append", ...).
	Name string `json:"name"`
	// Node is the recording node's self ID (empty outside cluster mode).
	Node string `json:"node,omitempty"`
	// Start is the span's start time on the recording node's clock.
	Start time.Time `json:"start"`
	// Duration is the span's wall-clock duration in nanoseconds.
	Duration time.Duration `json:"duration_ns"`
	// Error marks the span as failed.
	Error bool `json:"error,omitempty"`
	// Attrs holds the span's bounded key=value annotations.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute, or "".
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.K == key {
			return a.V
		}
	}
	return ""
}

// Segment is one node's retained slice of a trace: the locally recorded
// spans plus the retention verdict. Cross-node trees are assembled by
// concatenating segments with the same trace ID.
type Segment struct {
	// TraceID is the trace in hex.
	TraceID string `json:"trace_id"`
	// Node is the recording node's self ID.
	Node string `json:"node,omitempty"`
	// Reason says why the segment is visible: "error", "slow",
	// "sampled", or "active" for a still-open trace.
	Reason string `json:"reason"`
	// Duration is the longest span in the segment - the segment's local
	// critical path.
	Duration time.Duration `json:"duration_ns"`
	// Spans holds the recorded spans, in completion order.
	Spans []SpanData `json:"spans"`
	// DroppedSpans counts spans discarded over the per-trace bound.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// Summary is one retained trace as listed by GET /admin/trace: enough
// to pick a trace without shipping its whole span set.
type Summary struct {
	// TraceID is the trace in hex.
	TraceID string `json:"trace_id"`
	// Root is the name of the segment's root-most span.
	Root string `json:"root"`
	// Start is the earliest recorded span start.
	Start time.Time `json:"start"`
	// Duration is the longest span in the segment.
	Duration time.Duration `json:"duration_ns"`
	// Spans is the retained span count.
	Spans int `json:"spans"`
	// Error marks a trace with at least one failed span.
	Error bool `json:"error,omitempty"`
	// Reason is the retention verdict ("error", "slow", "sampled").
	Reason string `json:"reason"`
	// Tenant and Endpoint echo the root span's attrs for filtering.
	Tenant string `json:"tenant,omitempty"`
	// Endpoint is the root span's endpoint class attr.
	Endpoint string `json:"endpoint,omitempty"`
}

// Filter selects traces from the retained ring for listing.
type Filter struct {
	// Tenant keeps only traces whose root span has this tenant attr.
	Tenant string
	// Endpoint keeps only traces whose root span has this endpoint attr.
	Endpoint string
	// MinDuration keeps only traces at least this slow.
	MinDuration time.Duration
	// ErrorOnly keeps only errored traces.
	ErrorOnly bool
	// Limit bounds the result count (0 means a server-chosen default).
	Limit int
}

// Stats reports the tracer's lifetime counters.
type Stats struct {
	// Completed counts traces that reached a retention decision.
	Completed uint64 `json:"completed"`
	// Retained counts traces kept in the ring.
	Retained uint64 `json:"retained"`
	// DroppedTraces counts traces refused at the active-trace bound.
	DroppedTraces uint64 `json:"dropped_traces,omitempty"`
	// Active is the current in-flight trace count.
	Active int64 `json:"active"`
}

// Options configures a Tracer. The zero value is usable: unnamed node,
// 256-trace ring, 250ms slow threshold, 5% tail sample rate, 256 spans
// per trace, 4096 in-flight traces.
type Options struct {
	// Node is the recording node's self ID, stamped on every span.
	Node string
	// RingSize bounds the retained completed-trace ring.
	RingSize int
	// SlowThreshold marks traces at or above it as always-retained.
	SlowThreshold time.Duration
	// SampleRate is the retention probability for fast, clean traces;
	// 0 means the default, negative disables sampling entirely (only
	// errored and slow traces are kept).
	SampleRate float64
	// MaxSpansPerTrace bounds spans recorded per trace; excess spans
	// are counted, not stored.
	MaxSpansPerTrace int
	// MaxActiveTraces bounds concurrently open traces; new traces over
	// the bound are dropped (counted in Stats).
	MaxActiveTraces int
}

// shardCount splits the active-trace map so concurrent request starts
// and ends do not serialize on one lock. Must be a power of two.
const shardCount = 16

// Tracer records spans for one node and retains completed traces with
// tail-based sampling. Safe for concurrent use; the zero Tracer is not
// valid, use New.
type Tracer struct {
	node      atomic.Pointer[string]
	maxSpans  int
	maxActive int64

	slowNs     atomic.Int64
	sampleBits atomic.Uint64

	shards [shardCount]traceShard

	ringMu sync.Mutex
	ring   []*Segment
	next   int
	held   int

	active        atomic.Int64
	completed     atomic.Uint64
	retained      atomic.Uint64
	droppedTraces atomic.Uint64
}

// traceShard is one lock-striped slice of the active-trace map.
type traceShard struct {
	mu     sync.Mutex
	active map[TraceID]*activeTrace
}

// activeTrace accumulates one in-flight trace's completed spans until
// its open-span count returns to zero.
type activeTrace struct {
	open    int
	spans   []SpanData
	dropped int
	errored bool
	maxDur  time.Duration
}

// New builds a Tracer from opts, applying the documented defaults.
func New(opts Options) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = 256
	}
	if opts.SlowThreshold <= 0 {
		opts.SlowThreshold = 250 * time.Millisecond
	}
	switch {
	case opts.SampleRate == 0:
		opts.SampleRate = 0.05
	case opts.SampleRate < 0:
		opts.SampleRate = 0
	}
	if opts.MaxSpansPerTrace <= 0 {
		opts.MaxSpansPerTrace = 256
	}
	if opts.MaxActiveTraces <= 0 {
		opts.MaxActiveTraces = 4096
	}
	t := &Tracer{
		maxSpans:  opts.MaxSpansPerTrace,
		maxActive: int64(opts.MaxActiveTraces),
		ring:      make([]*Segment, opts.RingSize),
	}
	t.node.Store(&opts.Node)
	t.slowNs.Store(int64(opts.SlowThreshold))
	t.sampleBits.Store(math.Float64bits(opts.SampleRate))
	for i := range t.shards {
		t.shards[i].active = make(map[TraceID]*activeTrace)
	}
	return t
}

// SetNode renames the recording node. Cluster mode learns its self ID
// after the tracer exists, so the name is updatable; spans already
// recorded keep the name they were stamped with.
func (t *Tracer) SetNode(node string) {
	if t == nil {
		return
	}
	t.node.Store(&node)
}

// nodeName returns the current node name.
func (t *Tracer) nodeName() string { return *t.node.Load() }

// SetSlowThreshold changes the always-retain latency threshold.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNs.Store(int64(d)) }

// SlowThreshold returns the current always-retain latency threshold.
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slowNs.Load()) }

// SetSampleRate changes the retention probability for fast, clean
// traces (clamped to [0,1]).
func (t *Tracer) SetSampleRate(r float64) {
	t.sampleBits.Store(math.Float64bits(min(max(r, 0), 1)))
}

// Stats returns the tracer's lifetime counters.
func (t *Tracer) Stats() Stats {
	return Stats{
		Completed:     t.completed.Load(),
		Retained:      t.retained.Load(),
		DroppedTraces: t.droppedTraces.Load(),
		Active:        t.active.Load(),
	}
}

// ctxSpanKey carries the active *Span in a context.
type ctxSpanKey struct{}

// ctxRemoteKey carries a remote parent (TraceID+SpanID) parsed from an
// incoming traceparent header before any local span exists.
type ctxRemoteKey struct{}

// remoteParent is the ctxRemoteKey payload.
type remoteParent struct {
	trace TraceID
	span  SpanID
}

// ContextWith returns ctx carrying sp as the active span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxSpanKey{}, sp)
}

// FromContext returns the active span in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxSpanKey{}).(*Span)
	return sp
}

// ContextWithRemote returns ctx carrying a remote parent, so the next
// Start on this node becomes a child of span parent in trace id - the
// receiving half of traceparent propagation.
func ContextWithRemote(ctx context.Context, id TraceID, parent SpanID) context.Context {
	return context.WithValue(ctx, ctxRemoteKey{}, remoteParent{trace: id, span: parent})
}

// TraceparentFromContext renders the traceparent header value that makes
// remote work a child of ctx's active span (or, absent one, of ctx's
// remote parent) - the sending half of propagation. Empty when ctx
// carries no trace.
func TraceparentFromContext(ctx context.Context) string {
	if sp := FromContext(ctx); sp != nil {
		return sp.Traceparent()
	}
	if rp, ok := ctx.Value(ctxRemoteKey{}).(remoteParent); ok {
		return Traceparent(rp.trace, rp.span)
	}
	return ""
}

// Span is one in-flight operation. Created by Tracer.Start, finalized
// exactly once by End. All methods are nil-safe so call sites need no
// tracer-enabled checks.
type Span struct {
	tracer    *Tracer
	traceID   TraceID
	spanID    SpanID
	parent    SpanID
	hasParent bool
	name      string
	start     time.Time

	mu    sync.Mutex
	attrs []Attr
	// attrBuf backs the first attributes, so annotating a span - an
	// HTTP root span takes four - allocates nothing.
	attrBuf [4]Attr
	err     bool
	ended   bool
	// unregistered marks a span refused at the active-trace bound: End
	// discards it.
	unregistered bool
}

// maxAttrs bounds annotations per span.
const maxAttrs = 16

// Start begins a span named name. If ctx carries an active span the new
// span is its child; if ctx carries a remote parent (traceparent) the
// new span is the local root of that distributed trace; otherwise a
// fresh trace begins. The returned context carries the new span. A nil
// tracer returns ctx and a nil (no-op) span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := &Span{tracer: t, spanID: NewSpanID(), name: name, start: time.Now()}
	sp.attrs = sp.attrBuf[:0]
	if p := FromContext(ctx); p != nil && !p.unregistered {
		sp.traceID, sp.parent, sp.hasParent = p.traceID, p.spanID, true
	} else if rp, ok := ctx.Value(ctxRemoteKey{}).(remoteParent); ok {
		sp.traceID, sp.parent, sp.hasParent = rp.trace, rp.span, true
	} else {
		sp.traceID = NewTraceID()
	}
	sh := &t.shards[sp.traceID[0]&(shardCount-1)]
	sh.mu.Lock()
	at := sh.active[sp.traceID]
	if at == nil {
		if t.active.Load() >= t.maxActive {
			sh.mu.Unlock()
			t.droppedTraces.Add(1)
			sp.unregistered = true
			return ContextWith(ctx, sp), sp
		}
		at = &activeTrace{}
		sh.active[sp.traceID] = at
		t.active.Add(1)
	}
	at.open++
	sh.mu.Unlock()
	return ContextWith(ctx, sp), sp
}

// TraceID returns the span's trace ID (zero for a nil span).
func (sp *Span) TraceID() TraceID {
	if sp == nil {
		return TraceID{}
	}
	return sp.traceID
}

// ID returns the span's own ID (zero for a nil span).
func (sp *Span) ID() SpanID {
	if sp == nil {
		return SpanID{}
	}
	return sp.spanID
}

// Traceparent renders the header value that makes remote work a child
// of this span. Empty for a nil span.
func (sp *Span) Traceparent() string {
	if sp == nil {
		return ""
	}
	return Traceparent(sp.traceID, sp.spanID)
}

// SetAttr annotates the span; annotations over the per-span bound are
// dropped. No-op on a nil or ended span.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended && len(sp.attrs) < maxAttrs {
		sp.attrs = append(sp.attrs, Attr{K: key, V: value})
	}
	sp.mu.Unlock()
}

// SetError marks the span (and so its trace) as failed. A failed trace
// is always retained. No-op on a nil span or a nil error.
func (sp *Span) SetError(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended {
		sp.err = true
		if len(sp.attrs) < maxAttrs {
			sp.attrs = append(sp.attrs, Attr{K: "error", V: err.Error()})
		}
	}
	sp.mu.Unlock()
}

// Fail marks the span as failed with a bare reason string (for call
// sites that have a status code rather than an error value).
func (sp *Span) Fail(reason string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended {
		sp.err = true
		if reason != "" && len(sp.attrs) < maxAttrs {
			sp.attrs = append(sp.attrs, Attr{K: "error", V: reason})
		}
	}
	sp.mu.Unlock()
}

// End finalizes the span and, when it closes the last open span of its
// trace, decides retention. It reports whether this End completed the
// trace AND the trace was retained - callers use that to attach
// exemplars only for traces that are actually retrievable. Safe to call
// once; later calls are no-ops. Nil-safe.
func (sp *Span) End() bool {
	if sp == nil {
		return false
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return false
	}
	sp.ended = true
	d := time.Since(sp.start)
	data := SpanData{
		TraceID:  sp.traceID.String(),
		SpanID:   sp.spanID.String(),
		Name:     sp.name,
		Node:     sp.tracer.nodeName(),
		Start:    sp.start,
		Duration: d,
		Error:    sp.err,
		Attrs:    sp.attrs,
	}
	if sp.hasParent {
		data.ParentID = sp.parent.String()
	}
	sp.mu.Unlock()
	if sp.unregistered {
		return false
	}
	return sp.tracer.endSpan(sp.traceID, data, true)
}

// Duration returns the span's elapsed time so far (final after End).
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	return time.Since(sp.start)
}

// endSpan folds one completed span into its active trace; closing=true
// decrements the open count (a Start-ed span ending), false attaches a
// pre-completed child (RecordSpan). Returns whether this call completed
// the trace and the trace was retained.
func (t *Tracer) endSpan(id TraceID, data SpanData, closing bool) bool {
	sh := &t.shards[id[0]&(shardCount-1)]
	sh.mu.Lock()
	at := sh.active[id]
	if at == nil {
		sh.mu.Unlock()
		if closing {
			return false
		}
		// A child recorded after its trace completed (or with no local
		// trace at all, e.g. a WAL group-commit span): stand alone.
		return t.finish(id, &activeTrace{
			spans:   []SpanData{data},
			errored: data.Error,
			maxDur:  data.Duration,
		})
	}
	if len(at.spans) < t.maxSpans {
		at.spans = append(at.spans, data)
	} else {
		at.dropped++
	}
	if data.Error {
		at.errored = true
	}
	if data.Duration > at.maxDur {
		at.maxDur = data.Duration
	}
	if closing {
		at.open--
	}
	done := at.open <= 0
	if done {
		delete(sh.active, id)
	}
	sh.mu.Unlock()
	if !done {
		return false
	}
	t.active.Add(-1)
	return t.finish(id, at)
}

// RecordSpan attaches an already-measured operation as a completed span:
// a child of ctx's active span (or remote parent) when one exists, else
// a standalone single-span trace subject to the usual retention rules.
// This is how hook-shaped instrumentation with no context of its own
// (WAL group commit, view-cache rebuilds) lands in the trace store.
func (t *Tracer) RecordSpan(ctx context.Context, name string, start time.Time, d time.Duration, err error, attrs ...Attr) {
	if t == nil {
		return
	}
	data := SpanData{
		SpanID:   NewSpanID().String(),
		Name:     name,
		Node:     t.nodeName(),
		Start:    start,
		Duration: d,
		Error:    err != nil,
	}
	if len(attrs) > maxAttrs {
		attrs = attrs[:maxAttrs]
	}
	data.Attrs = attrs
	if err != nil && len(data.Attrs) < maxAttrs {
		data.Attrs = append(data.Attrs, Attr{K: "error", V: err.Error()})
	}
	var id TraceID
	if p := FromContext(ctx); p != nil && !p.unregistered {
		id, data.ParentID = p.traceID, p.spanID.String()
	} else if rp, ok := ctx.Value(ctxRemoteKey{}).(remoteParent); ok {
		id, data.ParentID = rp.trace, rp.span.String()
	} else {
		id = NewTraceID()
	}
	data.TraceID = id.String()
	t.endSpan(id, data, false)
}

// finish applies the tail-based retention decision to a completed trace
// and, when retained, pushes its segment into the ring. Reports whether
// the trace was retained.
func (t *Tracer) finish(id TraceID, at *activeTrace) bool {
	t.completed.Add(1)
	reason := ""
	switch {
	case at.errored:
		reason = "error"
	case at.maxDur >= time.Duration(t.slowNs.Load()):
		reason = "slow"
	case rand.Float64() < math.Float64frombits(t.sampleBits.Load()):
		reason = "sampled"
	default:
		return false
	}
	t.retained.Add(1)
	seg := &Segment{
		TraceID:      id.String(),
		Node:         t.nodeName(),
		Reason:       reason,
		Duration:     at.maxDur,
		Spans:        at.spans,
		DroppedSpans: at.dropped,
	}
	t.ringMu.Lock()
	t.ring[t.next] = seg
	t.next = (t.next + 1) % len(t.ring)
	if t.held < len(t.ring) {
		t.held++
	}
	t.ringMu.Unlock()
	return true
}

// rootOf picks the segment's root-most span: the first span with no
// parent, else the earliest-starting span.
func rootOf(spans []SpanData) SpanData {
	if len(spans) == 0 {
		return SpanData{}
	}
	best, found := spans[0], false
	for _, s := range spans {
		if s.ParentID == "" {
			if !found || s.Start.Before(best.Start) {
				best, found = s, true
			}
			continue
		}
		if !found && s.Start.Before(best.Start) {
			best = s
		}
	}
	return best
}

// List returns summaries of retained traces, newest first, filtered by
// f. Limit defaults to 100.
func (t *Tracer) List(f Filter) []Summary {
	if t == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	t.ringMu.Lock()
	segs := make([]*Segment, 0, t.held)
	for i := 0; i < t.held; i++ {
		// Walk backwards from the most recent write.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if s := t.ring[idx]; s != nil {
			segs = append(segs, s)
		}
	}
	t.ringMu.Unlock()
	out := make([]Summary, 0, min(limit, len(segs)))
	for _, seg := range segs {
		if len(out) >= limit {
			break
		}
		root := rootOf(seg.Spans)
		sum := Summary{
			TraceID:  seg.TraceID,
			Root:     root.Name,
			Start:    root.Start,
			Duration: seg.Duration,
			Spans:    len(seg.Spans),
			Error:    seg.Reason == "error",
			Reason:   seg.Reason,
			Tenant:   root.Attr("tenant"),
			Endpoint: root.Attr("endpoint"),
		}
		if f.Tenant != "" && sum.Tenant != f.Tenant {
			continue
		}
		if f.Endpoint != "" && sum.Endpoint != f.Endpoint {
			continue
		}
		if seg.Duration < f.MinDuration {
			continue
		}
		if f.ErrorOnly && !sum.Error {
			continue
		}
		out = append(out, sum)
	}
	return out
}

// Segments returns every locally held segment of the trace: retained
// ring entries plus, when the trace is still open, an "active" segment
// snapshotting the spans completed so far.
func (t *Tracer) Segments(id TraceID) []*Segment {
	if t == nil {
		return nil
	}
	hexID := id.String()
	var out []*Segment
	t.ringMu.Lock()
	for _, seg := range t.ring {
		if seg != nil && seg.TraceID == hexID {
			out = append(out, seg)
		}
	}
	t.ringMu.Unlock()
	sh := &t.shards[id[0]&(shardCount-1)]
	sh.mu.Lock()
	if at := sh.active[id]; at != nil && len(at.spans) > 0 {
		out = append(out, &Segment{
			TraceID:      hexID,
			Node:         t.nodeName(),
			Reason:       "active",
			Duration:     at.maxDur,
			Spans:        append([]SpanData(nil), at.spans...),
			DroppedSpans: at.dropped,
		})
	}
	sh.mu.Unlock()
	return out
}
