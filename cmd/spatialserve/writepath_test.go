package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	spatial "repro"
	"repro/internal/cluster"
	"repro/internal/faultinject"
)

// Write-path tests: a plain JSON update (no Idempotency-Key) is a
// sessionless record batch - validated whole before it is logged,
// logged under the request's trace, and never resent after an ambiguous
// forward failure.

// leftCount reads the left count of a locally held join estimator.
func leftCount(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	est, ok := s.lookup(name)
	if !ok {
		t.Fatalf("no estimator %q", name)
	}
	return est.counts()["left"]
}

// TestPlainDeleteBatchIsAtomic sends a delete batch whose third record
// is invalid: the whole batch must be refused with 400 and none of its
// deletes may land, in memory and across a crash of a persistent node.
func TestPlainDeleteBatchIsAtomic(t *testing.T) {
	rect1, rect2 := [][2]uint64{{1, 5}, {2, 8}}, [][2]uint64{{10, 20}, {30, 40}}
	bad := [][2]uint64{{9, 5}, {0, 2}}
	run := func(t *testing.T, s *Server) {
		createJoin(t, s, "j", 1<<10)
		mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update", updateBody(t, "left", [][][2]uint64{rect1, rect2})), http.StatusOK)
		body := mustJSON(t, updateRequest{Op: "delete", Side: "left", Rects: [][][2]uint64{rect1, rect2, bad}})
		w := do(t, s, "POST", "/v1/estimators/j/update", body)
		mustStatus(t, w, http.StatusBadRequest)
		if !strings.Contains(w.Body.String(), "invalid interval") {
			t.Fatalf("rejection %q does not name the invalid record", w.Body.String())
		}
		if n := leftCount(t, s, "j"); n != 2 {
			t.Fatalf("left count %d after a refused delete batch, want 2", n)
		}
	}
	t.Run("memory", func(t *testing.T) { run(t, NewServer()) })
	t.Run("persistent", func(t *testing.T) {
		dir := t.TempDir()
		s := openPersistent(t, dir)
		t.Cleanup(func() { s.Close() })
		run(t, s)
		crash(t, s)
		s2 := openPersistent(t, dir)
		t.Cleanup(func() { s2.Close() })
		if n := leftCount(t, s2, "j"); n != 2 {
			t.Fatalf("left count %d after recovery, want 2 (the refused batch left a log record)", n)
		}
	})
}

// TestPlainUpdateWALFailureIsWriteAhead: with the WAL refusing writes, a
// plain update answers 500 and changes nothing - the records are logged
// before they are applied.
func TestPlainUpdateWALFailureIsWriteAhead(t *testing.T) {
	in := faultinject.New(1)
	s, err := NewPersistentServer(PersistOptions{DataDir: t.TempDir(), WALHooks: in.WALHooks("a")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	createJoin(t, s, "j", 1<<10)
	in.Add(faultinject.Rule{To: "a", Kind: faultinject.KindWALWrite})
	for _, body := range []string{
		`{"side":"left","rects":[[[1,5],[2,8]],[[3,9],[4,7]]]}`,
		`{"side":"right","rects":[[[1,5],[2,8]]]}`,
	} {
		mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update", []byte(body)), http.StatusInternalServerError)
	}
	est, _ := s.lookup("j")
	if c := est.counts(); c["left"] != 0 || c["right"] != 0 {
		t.Fatalf("updates landed although their WAL append failed: counts %v", c)
	}
}

// postHook runs fn after every POST the wrapped transport delivers.
type postHook struct {
	next http.RoundTripper
	fn   func(*http.Request)
}

// RoundTrip delivers req, then calls the hook for POSTs.
func (h postHook) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.next.RoundTrip(req)
	if req.Method == http.MethodPost {
		h.fn(req)
	}
	return resp, err
}

// TestPlainUpdateSessionlessRetry pins the resend rule of a forwarded
// update on a 3-node persistent ring. The router's POST to one owner is
// delivered but its answer is cut short, so the router cannot know
// whether the owner applied it. A plain update must not be resent: it
// answers 502 with the other partitions' applied count, and the owner
// applied its record once. The same update with an Idempotency-Key is
// resent, answers 200, and the owner still applied it once.
func TestPlainUpdateSessionlessRetry(t *testing.T) {
	checkGoroutineLeaks(t)
	in := faultinject.New(7)
	var (
		hookMu   sync.Mutex
		onceRule string // removed after the first delivered POST to the victim
		victim   string // host:port of the victim owner
	)
	srvs := make([]*Server, 3)
	urls := make([]string, 3)
	for i := range srvs {
		var err error
		srvs[i], err = NewPersistentServer(PersistOptions{DataDir: filepath.Join(t.TempDir(), "node")})
		if err != nil {
			t.Fatal(err)
		}
		ht := httptest.NewServer(srvs[i])
		t.Cleanup(ht.Close)
		s := srvs[i]
		t.Cleanup(func() { s.Close() })
		urls[i] = ht.URL
		u, _ := url.Parse(ht.URL)
		in.NameHost(u.Host, fmt.Sprintf("n%d", i))
	}
	m := &cluster.Map{Version: 1}
	for i, u := range urls {
		m.Nodes = append(m.Nodes, cluster.Node{ID: fmt.Sprintf("n%d", i), URL: u})
	}
	for i, s := range srvs {
		id := fmt.Sprintf("n%d", i)
		rt := postHook{next: in.Transport(id, cluster.NewTransport()), fn: func(req *http.Request) {
			hookMu.Lock()
			defer hookMu.Unlock()
			if onceRule != "" && req.URL.Host == victim {
				in.Remove(onceRule)
				onceRule = ""
			}
		}}
		if err := s.EnableCluster(ClusterOptions{
			SelfID: id, Map: m.Clone(), Partitions: testPartitions,
			Client: &cluster.Client{HTTP: &http.Client{Transport: rt}, Timeout: 5 * time.Second},
		}); err != nil {
			t.Fatal(err)
		}
	}
	router := srvs[0]
	mustDo(t, "POST", urls[0]+"/v1/estimators", mustJSON(t, createRequest{
		Name: "j", Kind: "join", Config: configRequest{Dims: 2, DomainSize: 1 << 12, Seed: 1, Instances: 16, Groups: 4},
	}), http.StatusCreated)

	// Pick rects: one on a partition of a remote victim owner, two on
	// partitions owned by anyone else.
	owner := func(r [][2]uint64) (string, string) {
		rec := spatial.UpdateRecord{Op: spatial.OpInsert, Side: spatial.SideLeft, Rect: decodeQuery(r)}
		shard := cluster.ShardName("j", cluster.PartitionOf(rec.RoutingHash(), testPartitions))
		n, _ := router.cluster.map_().Owner(shard)
		return shard, n.ID
	}
	victimID, victimShard := "", ""
	next := uint64(1)
	pick := func(onVictim bool) [][2]uint64 {
		for ; ; next++ {
			r := [][2]uint64{{next, next + 3}, {2 * next, 2*next + 5}}
			shard, id := owner(r)
			if onVictim == (shard == victimShard) && (onVictim || id != victimID) {
				next++
				return r
			}
		}
	}
	for p := 0; p < testPartitions; p++ {
		shard := cluster.ShardName("j", p)
		if n, _ := router.cluster.map_().Owner(shard); n.ID != "n0" {
			victimID, victimShard = n.ID, shard
			break
		}
	}
	if victimID == "" {
		t.Skip("every partition landed on the router")
	}
	victimSrv := srvs[victimID[1]-'0']
	victimURL, _ := url.Parse(urls[victimID[1]-'0'])
	victim = victimURL.Host

	send := func(key string) (int, []byte) {
		batch := [][][2]uint64{pick(true), pick(false), pick(false)}
		hookMu.Lock()
		onceRule = in.Add(faultinject.Rule{From: "n0", To: victimID, Methods: "POST", Kind: faultinject.KindTruncate})
		hookMu.Unlock()
		var hdr map[string]string
		if key != "" {
			hdr = map[string]string{"Idempotency-Key": key}
		}
		resp, data := httpDo(t, "POST", urls[0]+"/v1/estimators/j/update", updateBody(t, "left", batch), hdr)
		return resp.StatusCode, data
	}

	status, data := send("")
	if status != http.StatusBadGateway || !strings.Contains(string(data), "(2 records applied)") {
		t.Fatalf("plain update with a lost answer: status %d: %s; want 502 naming 2 applied records", status, data)
	}
	if n := leftCount(t, victimSrv, victimShard); n != 1 {
		t.Fatalf("victim owner holds %d records after the plain update, want exactly 1", n)
	}

	status, data = send("retry-key")
	if status != http.StatusOK {
		t.Fatalf("keyed update with a lost answer: status %d: %s; want 200 after a resend", status, data)
	}
	if n := leftCount(t, victimSrv, victimShard); n != 2 {
		t.Fatalf("victim owner holds %d records after the keyed update, want 2 (applied once)", n)
	}
	if evs := in.Events(); len(evs) != 2 {
		t.Fatalf("%d injected truncations, want 2 (one per update)", len(evs))
	}
}

// hasChain reports whether some span in the forest starts a direct
// parent-to-child chain of the named spans.
func hasChain(nodes []*traceTreeNode, names ...string) bool {
	for _, n := range nodes {
		if chainFrom(n, names) || hasChain(n.Children, names...) {
			return true
		}
	}
	return false
}

// chainFrom reports whether n and a line of its descendants carry names,
// one generation each.
func chainFrom(n *traceTreeNode, names []string) bool {
	if n.Name != names[0] {
		return false
	}
	if len(names) == 1 {
		return true
	}
	for _, c := range n.Children {
		if chainFrom(c, names[1:]) {
			return true
		}
	}
	return false
}

// TestPlainUpdateWALSpans: a traced plain update pays for its WAL append
// inside the request's trace, on one node and through a cluster, where
// the append hangs under the owner's internal ingest request.
func TestPlainUpdateWALSpans(t *testing.T) {
	t.Run("node", func(t *testing.T) {
		s := openPersistent(t, t.TempDir())
		defer s.Close()
		s.Tracer().SetSampleRate(1)
		ht := httptest.NewServer(s)
		defer ht.Close()
		traceCreateJoin(t, ht.URL)
		tid := "44444444444444444444444444444444"
		body := []byte(`{"side":"left","rects":[[[1,5],[2,8]]]}`)
		if resp, data := httpDo(t, "POST", ht.URL+"/v1/estimators/j/update", body, tpHeader(tid)); resp.StatusCode != http.StatusOK {
			t.Fatalf("update: status %d: %s", resp.StatusCode, data)
		}
		if tr := getTrace(t, ht.URL, tid); !hasChain(tr.Tree, "http update", "wal.append") {
			t.Fatalf("plain update trace has no wal.append under its root: %v", spanNames(tr))
		}
	})
	t.Run("cluster", func(t *testing.T) {
		srvs, urls := startCluster(t, 3, true)
		for _, s := range srvs {
			s.Tracer().SetSampleRate(1)
		}
		traceCreateJoin(t, urls[0])
		rects := make([][][2]uint64, 16)
		for i := range rects {
			lo := uint64(97 * i)
			rects[i] = [][2]uint64{{lo, lo + 9}, {lo / 2, lo/2 + 13}}
		}
		tid := "55555555555555555555555555555555"
		if resp, data := httpDo(t, "POST", urls[0]+"/v1/estimators/j/update", updateBody(t, "left", rects), tpHeader(tid)); resp.StatusCode != http.StatusOK {
			t.Fatalf("update: status %d: %s", resp.StatusCode, data)
		}
		tr := getTrace(t, urls[1], tid)
		if !hasChain(tr.Tree, "http update", "fanout.ingest", "http ingest", "wal.append") {
			t.Fatalf("clustered plain update trace lacks fanout.ingest -> http ingest -> wal.append: %v", spanNames(tr))
		}
		if len(tr.Tree) != 1 {
			t.Fatalf("update trace has %d roots, want 1 stitched tree", len(tr.Tree))
		}
	})
}
