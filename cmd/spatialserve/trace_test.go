package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spatial "repro"
	"repro/ingestclient"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Tracing tests: the /admin/trace endpoints on one node, exemplars and
// the slow-op log, pprof gating, and the headline claim - one clustered
// estimate stitches into a single trace tree covering the router, the
// remote shard owners and the WAL, retrievable from any node.

// tpHeader builds a traceparent header for a caller-minted trace ID.
func tpHeader(traceID string) map[string]string {
	return map[string]string{"traceparent": "00-" + traceID + "-00f067aa0ba902b7-01"}
}

// traceCreateJoin creates the canonical join estimator "j" on base.
func traceCreateJoin(t *testing.T, base string) {
	t.Helper()
	mustDo(t, "POST", base+"/v1/estimators", mustJSON(t, createRequest{
		Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: 1 << 12, Seed: 1, Instances: 64, Groups: 4},
	}), http.StatusCreated)
}

// getTrace fetches and decodes GET /admin/trace/{id} from base.
func getTrace(t *testing.T, base, id string) traceGetResponse {
	t.Helper()
	var resp traceGetResponse
	if err := json.Unmarshal(mustDo(t, "GET", base+"/admin/trace/"+id, nil, http.StatusOK), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// spanNames flattens a trace response to its deduplicated span names.
func spanNames(resp traceGetResponse) map[string]int {
	names := map[string]int{}
	seen := map[string]bool{}
	for _, seg := range resp.Segments {
		for _, sp := range seg.Spans {
			if !seen[sp.SpanID] {
				seen[sp.SpanID] = true
				names[sp.Name]++
			}
		}
	}
	return names
}

// TestTraceEndpointsSingleNode drives traced requests through one node
// and exercises GET /admin/trace listing, filtering, argument
// validation, and single-trace retrieval.
func TestTraceEndpointsSingleNode(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.Tracer().SetSampleRate(1)
	ht := httptest.NewServer(s)
	defer ht.Close()
	traceCreateJoin(t, ht.URL)

	tidUpdate := "11111111111111111111111111111111"
	tidEstimate := "22222222222222222222222222222222"
	body := []byte(`{"side":"left","rects":[[[1,5],[2,8]]]}`)
	if resp, data := httpDo(t, "POST", ht.URL+"/v1/estimators/j/update", body, tpHeader(tidUpdate)); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := httpDo(t, "GET", ht.URL+"/v1/estimators/j/estimate", nil, tpHeader(tidEstimate)); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", resp.StatusCode, data)
	}

	var list traceListResponse
	if err := json.Unmarshal(mustDo(t, "GET", ht.URL+"/admin/trace", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	found := map[string]trace.Summary{}
	for _, tr := range list.Traces {
		found[tr.TraceID] = tr
	}
	if tr, ok := found[tidUpdate]; !ok || tr.Endpoint != "update" {
		t.Fatalf("update trace %s not listed with endpoint=update: %+v", tidUpdate, tr)
	}
	if tr, ok := found[tidEstimate]; !ok || tr.Endpoint != "estimate" || tr.Root != "http estimate" {
		t.Fatalf("estimate trace %s not listed as http estimate: %+v", tidEstimate, tr)
	}
	if list.Stats.Retained == 0 || list.Stats.Completed < list.Stats.Retained {
		t.Fatalf("implausible tracer stats: %+v", list.Stats)
	}

	// Endpoint filter narrows to the estimate trace only.
	if err := json.Unmarshal(mustDo(t, "GET", ht.URL+"/admin/trace?endpoint=estimate", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	for _, tr := range list.Traces {
		if tr.Endpoint != "estimate" {
			t.Fatalf("endpoint filter leaked %+v", tr)
		}
	}
	mustDo(t, "GET", ht.URL+"/admin/trace?min_ms=abc", nil, http.StatusBadRequest)
	mustDo(t, "GET", ht.URL+"/admin/trace?limit=0", nil, http.StatusBadRequest)

	got := getTrace(t, ht.URL, tidEstimate)
	if got.TraceID != tidEstimate || got.Spans < 1 || len(got.Tree) == 0 {
		t.Fatalf("trace get: %+v", got)
	}
	if got.Tree[0].Name != "http estimate" || got.Tree[0].SpanData.Attr("endpoint") != "estimate" {
		t.Fatalf("root span %+v, want http estimate", got.Tree[0].SpanData)
	}
	// The root is a child of the caller's minted span, not a new root.
	if got.Tree[0].ParentID != "00f067aa0ba902b7" {
		t.Fatalf("root parent %q, want the traceparent's span ID", got.Tree[0].ParentID)
	}

	mustDo(t, "GET", ht.URL+"/admin/trace/ffffffffffffffffffffffffffffffff", nil, http.StatusNotFound)
	mustDo(t, "GET", ht.URL+"/admin/trace/nothex", nil, http.StatusBadRequest)
}

// TestTraceExemplarAndSlowOpLog checks the two cross-reference paths out
// of a trace: the request-latency histogram exposes an exemplar carrying
// the retained trace's ID, and the slow-op log emits a JSON line naming
// the same trace.
func TestTraceExemplarAndSlowOpLog(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.Tracer().SetSampleRate(1)
	var slow bytes.Buffer
	s.EnableSlowOpLog(&slow, time.Nanosecond) // everything is "slow"
	ht := httptest.NewServer(s)
	defer ht.Close()
	traceCreateJoin(t, ht.URL)

	tid := "33333333333333333333333333333333"
	if resp, data := httpDo(t, "GET", ht.URL+"/v1/estimators/j/estimate", nil, tpHeader(tid)); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", resp.StatusCode, data)
	}

	metricsBody := mustDo(t, "GET", ht.URL+"/metrics", nil, http.StatusOK)
	if !metrics.HasSeries(metricsBody, "spatialserve_request_seconds_exemplar") {
		t.Fatalf("no exemplar family in /metrics:\n%s", metricsBody)
	}
	if !strings.Contains(string(metricsBody), `trace_id="`+tid+`"`) {
		t.Fatalf("exemplar does not carry the retained trace ID %s:\n%s", tid, metricsBody)
	}
	if err := metrics.Lint(metricsBody); err != nil {
		t.Fatalf("exposition with exemplars fails lint: %v", err)
	}

	var sawEstimate bool
	for _, line := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
		var op trace.SlowOp
		if err := json.Unmarshal([]byte(line), &op); err != nil {
			t.Fatalf("slow-op line %q: %v", line, err)
		}
		if op.Op == "" || op.Duration <= 0 {
			t.Fatalf("slow-op line missing op/duration: %q", line)
		}
		if op.Endpoint == "estimate" {
			sawEstimate = true
			if op.TraceID != tid {
				t.Fatalf("slow-op trace_id %q, want %q", op.TraceID, tid)
			}
			if op.Status != http.StatusOK {
				t.Fatalf("slow-op status %d, want 200", op.Status)
			}
		}
	}
	if !sawEstimate {
		t.Fatalf("no slow-op line for the estimate:\n%s", slow.String())
	}
}

// TestPprofGate checks /debug/pprof is absent by default and served
// (admission-exempt) once enabled.
func TestPprofGate(t *testing.T) {
	s := NewServer()
	defer s.Close()
	// Admission configured so tight that any non-exempt request is shed.
	s.EnableAdmission(AdmitOptions{ShedQPS: 0.000001, ShedBurst: 1})
	ht := httptest.NewServer(s)
	defer ht.Close()

	if resp, _ := httpDo(t, "GET", ht.URL+"/debug/pprof/", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without -pprof: status %d", resp.StatusCode)
	}
	s.EnablePprof()
	// Burn the only token so the exemption is what lets pprof through.
	httpDo(t, "GET", ht.URL+"/v1/estimators", nil, nil)
	if resp, data := httpDo(t, "GET", ht.URL+"/debug/pprof/cmdline", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d: %s", resp.StatusCode, data)
	}
	if resp, _ := httpDo(t, "GET", ht.URL+"/debug/pprof/", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: not admission-exempt")
	}
}

// TestClusterTraceStitched is the tentpole's acceptance test: traced
// writes and a traced estimate against a persistent 3-node cluster must
// each assemble into a single tree - root span on the routing node,
// fan-out child spans, remote owners' serving spans stitched under them,
// and the WAL appends visible - retrievable from ANY node, including one
// that recorded nothing locally.
func TestClusterTraceStitched(t *testing.T) {
	srvs, urls := startCluster(t, 3, true)
	for _, s := range srvs {
		s.Tracer().SetSampleRate(1)
	}

	tidCreate := "cccccccccccccccccccccccccccccccc"
	if resp, data := httpDo(t, "POST", urls[0]+"/v1/estimators", mustJSON(t, createRequest{
		Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: 1 << 12, Seed: 1, Instances: 64, Groups: 4},
	}), tpHeader(tidCreate)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}

	tidUpdate := "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	tidEstimate := "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
	body := []byte(`{"side":"left","rects":[[[1,5],[2,8]]]}`)
	if resp, data := httpDo(t, "POST", urls[0]+"/v1/estimators/j/update", body, tpHeader(tidUpdate)); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := httpDo(t, "GET", urls[0]+"/v1/estimators/j/estimate", nil, tpHeader(tidEstimate)); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", resp.StatusCode, data)
	}

	// The estimate trace, fetched from a node that did NOT route it: peer
	// segment fetch must still assemble the full tree.
	est := getTrace(t, urls[2], tidEstimate)
	if len(est.Nodes) < 2 {
		t.Fatalf("estimate trace covers nodes %v, want the router plus at least one remote owner", est.Nodes)
	}
	names := spanNames(est)
	if names["http estimate"] == 0 {
		t.Fatalf("no router root span in %v", names)
	}
	if names["fanout.snapshot"] == 0 {
		t.Fatalf("no fan-out spans in %v", names)
	}
	if len(est.Tree) != 1 {
		t.Fatalf("estimate trace has %d roots, want 1 stitched tree: %v", len(est.Tree), names)
	}
	// Remote owners' serving spans must hang under the router's fan-out
	// spans, not float as orphan roots.
	var remoteStitched func(n *traceTreeNode) bool
	rootNode := est.Tree[0].SpanData.Node
	remoteStitched = func(n *traceTreeNode) bool {
		for _, c := range n.Children {
			if c.SpanData.Node != rootNode && c.SpanData.Node != "" {
				return true
			}
			if remoteStitched(c) {
				return true
			}
		}
		return false
	}
	if !remoteStitched(est.Tree[0]) {
		t.Fatalf("no remote span stitched under the router's tree (nodes %v)", est.Nodes)
	}

	// The update trace: routed fan-out to the owning shard, fetched from
	// yet another node.
	upd := getTrace(t, urls[1], tidUpdate)
	names = spanNames(upd)
	if names["http update"] == 0 || names["fanout.ingest"] == 0 {
		t.Fatalf("update trace missing routing spans: %v", names)
	}
	if len(upd.Tree) != 1 {
		t.Fatalf("update trace has %d roots, want 1 stitched tree: %v", len(upd.Tree), names)
	}

	// The create trace carries the durability layer: every owner's
	// walOpCreate append is a wal.append span under the same trace.
	cre := getTrace(t, urls[2], tidCreate)
	names = spanNames(cre)
	if names["wal.append"] == 0 {
		t.Fatalf("create trace missing WAL append spans: %v", names)
	}
	if len(cre.Nodes) < 2 {
		t.Fatalf("create trace covers nodes %v, want at least 2", cre.Nodes)
	}
	if len(cre.Tree) != 1 {
		t.Fatalf("create trace has %d roots, want 1 stitched tree: %v", len(cre.Tree), names)
	}
}

// TestUpgradedConnectionIsNotARequest: a connection upgraded to a frame
// protocol is counted once in spatialserve_requests_total and recorded
// nowhere else - no request_seconds observation, no root span - so each
// frame on it is its own trace: an open stream's batches are listed while
// it stays open, and a peer connection that outlived the slow threshold
// leaves no "http peer" trace behind.
func TestUpgradedConnectionIsNotARequest(t *testing.T) {
	countOnce := func(t *testing.T, srv *Server, endpoint string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		label := `endpoint="` + endpoint + `"`
		for {
			body := string(scrape(t, srv))
			for _, line := range strings.Split(body, "\n") {
				if !strings.HasPrefix(line, "spatialserve_requests_total{") || !strings.Contains(line, label) {
					continue
				}
				if !strings.HasSuffix(line, "} 1") {
					t.Fatalf("an upgraded %s connection was counted more than once: %s", endpoint, line)
				}
				if containsSeriesWithLabels(body, "spatialserve_request_seconds", label) {
					t.Fatalf("an upgraded %s connection was timed as a request:\n%s", endpoint, body)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("a closed %s connection was not counted once:\n%s", endpoint, body)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	roots := func(t *testing.T, base string) map[string]int {
		t.Helper()
		var list traceListResponse
		if err := json.Unmarshal(mustDo(t, "GET", base+"/admin/trace?limit=256", nil, http.StatusOK), &list); err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, tr := range list.Traces {
			out[tr.Root]++
		}
		return out
	}

	t.Run("stream", func(t *testing.T) {
		srv := NewServer()
		srv.Tracer().SetSampleRate(1)
		ht := httptest.NewServer(srv)
		defer ht.Close()
		createStreamJoin(t, ht.URL)
		c, err := ingestclient.Dial(ingestclient.Options{BaseURL: ht.URL, Estimator: "j", Session: "traced"})
		if err != nil {
			t.Fatal(err)
		}
		const batches = 30
		rng := rand.New(rand.NewSource(5))
		var sent []spatial.UpdateRecord
		for i := 0; i < batches; i++ {
			if err := c.Send(streamBatch(rng, 4, &sent)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := roots(t, ht.URL); got["ingest.batch"] < batches || got["ingest.hello"] != 1 {
			t.Fatalf("with the stream open the ring holds %v, want %d ingest.batch traces and one ingest.hello", got, batches)
		}
		c.Close()
		countOnce(t, srv, "ingest")
		if got := roots(t, ht.URL); got["http ingest"] != 0 {
			t.Fatalf("the closed stream left a request trace: %v", got)
		}
	})

	t.Run("peer", func(t *testing.T) {
		srv := NewServer()
		srv.Tracer().SetSlowThreshold(20 * time.Millisecond)
		ht := httptest.NewServer(srv)
		defer ht.Close()
		defer srv.Close()
		conn, err := net.Dial("tcp", strings.TrimPrefix(ht.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", cluster.PeerPath, cluster.PeerProtocol)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("peer upgrade: %v %v", resp, err)
		}
		time.Sleep(60 * time.Millisecond) // past the slow threshold
		conn.Close()
		countOnce(t, srv, "peer")
		if got := roots(t, ht.URL); got["http peer"] != 0 {
			t.Fatalf("a peer connection open past the slow threshold left a trace: %v", got)
		}
	})
}
