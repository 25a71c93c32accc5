package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	spatial "repro"
	"repro/internal/cluster"
	"repro/internal/trace"
)

// Request tracing: every request gets a root span in the node's Tracer
// (internal/trace), layered onto the existing X-Request-Id plumbing via
// the W3C traceparent header. Cluster fan-out sub-requests, streaming
// ingest batches, WAL appends and group commits, checkpoints, rebalance
// handoffs, replica shipping and view-cache rebuilds all record child
// spans into the same trace, so one slow estimate can be reconstructed
// as a single tree across every node it touched. Completed traces live
// in a bounded per-node ring with tail-based retention (errored and
// slow-beyond-threshold traces always kept, the rest sampled) and are
// served by GET /admin/trace (list) and GET /admin/trace/{id} (the
// assembled tree, remote segments fetched from peers). A structured
// slow-op log (JSON lines, -slow-op-threshold) replaces ad-hoc printf
// logging on the hot paths, and the request-latency histograms in
// /metrics carry exemplar trace IDs for retained traces so a latency
// bucket links straight to a retrievable trace.

// headerTraceparent is the W3C trace-context propagation header.
const headerTraceparent = "traceparent"

// initTracing builds the server's tracer and (disabled-by-default)
// slow-op logger. Called from NewServer before any route can serve.
func (s *Server) initTracing() {
	s.tracer = trace.New(trace.Options{})
	s.slowLog = trace.NewSlowOpLogger(nil, 0, "")
}

// Tracer returns the server's span recorder (never nil after NewServer).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// EnableSlowOpLog points the structured slow-op log at w and sets its
// threshold: completed operations at or above it are written as one JSON
// line each. A zero or negative threshold disables the log. The tracer's
// always-retain threshold follows the same knob so a logged slow op's
// trace is also retrievable.
func (s *Server) EnableSlowOpLog(w io.Writer, threshold time.Duration) {
	s.slowLog = trace.NewSlowOpLogger(w, threshold, s.nodeID())
	if threshold > 0 {
		s.tracer.SetSlowThreshold(threshold)
	}
}

// nodeID returns the cluster self ID, or "" outside cluster mode.
func (s *Server) nodeID() string {
	if s.cluster != nil {
		return s.cluster.selfID
	}
	return ""
}

// observeViewRebuilds routes the library's view-cache rebuild hook into
// the tracer: each fold lands as a span, attached to the requesting
// trace when the rebuild happens under a traced request, standalone
// (and so subject to slow retention) when it does not. The hook is
// process-wide, so the last server to call this owns it - one server
// per process outside tests, and tests that care re-register.
func (s *Server) observeViewRebuilds() {
	spatial.SetViewRebuildObserver(func(start time.Time, d time.Duration) {
		s.tracer.RecordSpan(context.Background(), "view.rebuild", start, d, nil)
	})
}

// EnablePprof mounts net/http/pprof's profiling handlers on the server
// mux under /debug/pprof/. Off by default (-pprof to enable): profiles
// reveal internals and cost CPU while sampling. The endpoints are
// admission-exempt (see admitExempt) so an overloaded node - exactly
// when a profile is wanted - can still be profiled.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ---- /admin/trace ----

// traceListResponse is the GET /admin/trace document: this node's
// retained traces (newest first) plus tracer counters and thresholds.
type traceListResponse struct {
	// Node is the answering node's self ID (cluster mode only).
	Node string `json:"node,omitempty"`
	// Stats carries the tracer's lifetime counters.
	Stats trace.Stats `json:"stats"`
	// SlowThresholdMS is the always-retain latency threshold.
	SlowThresholdMS int64 `json:"slow_threshold_ms"`
	// Traces lists the retained traces matching the filter.
	Traces []trace.Summary `json:"traces"`
}

// handleTraceList serves GET /admin/trace: the node-local retained
// traces, filterable by ?tenant=, ?endpoint=, ?min_ms=, ?error=1 and
// bounded by ?limit=.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := trace.Filter{
		Tenant:    q.Get("tenant"),
		Endpoint:  q.Get("endpoint"),
		ErrorOnly: q.Get("error") != "",
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "min_ms must be a non-negative integer")
			return
		}
		f.MinDuration = time.Duration(ms) * time.Millisecond
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		f.Limit = n
	}
	writeJSON(w, http.StatusOK, traceListResponse{
		Node:            s.nodeID(),
		Stats:           s.tracer.Stats(),
		SlowThresholdMS: s.tracer.SlowThreshold().Milliseconds(),
		Traces:          s.tracer.List(f),
	})
}

// traceTreeNode is one span with its children attached - the assembled
// tree form of GET /admin/trace/{id}.
type traceTreeNode struct {
	trace.SpanData
	// Children are the span's child spans, ordered by start time.
	Children []*traceTreeNode `json:"children,omitempty"`
}

// traceGetResponse is the GET /admin/trace/{id} document.
type traceGetResponse struct {
	// TraceID is the requested trace in hex.
	TraceID string `json:"trace_id"`
	// Nodes lists every node that contributed a segment.
	Nodes []string `json:"nodes,omitempty"`
	// Spans is the deduplicated span count across segments.
	Spans int `json:"spans"`
	// DroppedSpans sums spans the recording nodes discarded over their
	// per-trace bounds.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// Segments holds the raw per-node segments - what peers exchange.
	Segments []*trace.Segment `json:"segments"`
	// Tree is the assembled span tree (roots ordered by start time).
	// Spans whose parent was not retained anywhere surface as roots.
	Tree []*traceTreeNode `json:"tree"`
}

// handleTraceGet serves GET /admin/trace/{id}: this node's segments of
// the trace plus - unless ?local=1 or the request is an internal
// sub-request - every peer's, assembled into one tree. 404 when no node
// holds the trace.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id, ok := trace.ParseTraceID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusBadRequest, "trace id must be 32 hex digits")
		return
	}
	segs := s.tracer.Segments(id)
	if s.cluster != nil && r.URL.Query().Get("local") == "" && !isInternal(r) {
		segs = append(segs, s.cluster.fetchPeerTraceSegments(r.Context(), id)...)
	}
	if len(segs) == 0 {
		writeError(w, http.StatusNotFound, "no retained trace %s", id)
		return
	}
	resp := traceGetResponse{TraceID: id.String(), Segments: segs}
	resp.Tree, resp.Spans = assembleTraceTree(segs)
	nodes := map[string]bool{}
	for _, seg := range segs {
		resp.DroppedSpans += seg.DroppedSpans
		if seg.Node != "" && !nodes[seg.Node] {
			nodes[seg.Node] = true
			resp.Nodes = append(resp.Nodes, seg.Node)
		}
	}
	sort.Strings(resp.Nodes)
	writeJSON(w, http.StatusOK, resp)
}

// fetchPeerTraceSegments collects the trace's segments from every other
// cluster node and every attached read replica (which serve a failed
// owner's reads), best-effort: an unreachable peer costs its segments,
// not the response.
func (c *clusterNode) fetchPeerTraceSegments(ctx context.Context, id trace.TraceID) []*trace.Segment {
	m := c.map_()
	var peers []cluster.Node
	for _, n := range m.Nodes {
		if n.ID != c.selfID {
			peers = append(peers, n)
		}
	}
	for owner, url := range m.Replicas {
		peers = append(peers, cluster.Node{ID: "replica:" + owner, URL: url})
	}
	perNode, _ := cluster.Scatter(len(peers), func(i int) ([]*trace.Segment, error) {
		n := peers[i]
		resp, err := c.callNode(ctx, n, http.MethodGet, n.URL+"/admin/trace/"+id.String()+"?local=1", nil, internalHeader())
		var body traceGetResponse
		if err != nil || resp.Status != http.StatusOK || json.Unmarshal(resp.Body, &body) != nil {
			return nil, nil
		}
		return body.Segments, nil
	})
	return slices.Concat(perNode...)
}

// assembleTraceTree builds the span tree from a trace's segments:
// duplicate span IDs (a span retained both in a ring segment and an
// active snapshot) collapse to one node, children attach to their
// parents, and spans whose parent is not present anywhere become roots.
// Roots and children are ordered by start time. Returns the tree and
// the deduplicated span count.
func assembleTraceTree(segs []*trace.Segment) ([]*traceTreeNode, int) {
	byID := make(map[string]*traceTreeNode)
	var order []*traceTreeNode
	for _, seg := range segs {
		for _, sp := range seg.Spans {
			if _, dup := byID[sp.SpanID]; dup {
				continue
			}
			n := &traceTreeNode{SpanData: sp}
			byID[sp.SpanID] = n
			order = append(order, n)
		}
	}
	var roots []*traceTreeNode
	for _, n := range order {
		if p := byID[n.ParentID]; n.ParentID != "" && p != nil && p != n {
			p.Children = append(p.Children, n)
			continue
		}
		roots = append(roots, n)
	}
	byStart := func(nodes []*traceTreeNode) {
		sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].Start.Before(nodes[j].Start) })
	}
	byStart(roots)
	for _, n := range order {
		byStart(n.Children)
	}
	return roots, len(order)
}
