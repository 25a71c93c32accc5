package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/ingestclient"
	"repro/internal/cluster"
)

// In-process cluster tests: several Servers wired together over real HTTP
// (httptest listeners), all race-clean. The exactness claims are checked
// the strongest way possible - merged cluster snapshots must be
// BYTE-identical to a loss-free single-node build of the same stream.

const testPartitions = 4

// startCluster brings up n in-process cluster nodes (persistent when dirs
// is non-nil) and returns the servers and their base URLs.
func startCluster(t *testing.T, n int, persistent bool) ([]*Server, []string) {
	t.Helper()
	return startClusterParts(t, n, persistent, testPartitions)
}

// startClusterParts is startCluster with parts partitions per estimator.
func startClusterParts(t *testing.T, n int, persistent bool, parts int) ([]*Server, []string) {
	t.Helper()
	checkGoroutineLeaks(t)
	srvs := make([]*Server, n)
	hts := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		var err error
		if persistent {
			srvs[i], err = NewPersistentServer(PersistOptions{DataDir: filepath.Join(t.TempDir(), "node")})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			srvs[i] = NewServer()
		}
		hts[i] = httptest.NewServer(srvs[i])
		urls[i] = hts[i].URL
		t.Cleanup(hts[i].Close)
		srv := srvs[i]
		t.Cleanup(func() { srv.Close() })
	}
	m := &cluster.Map{Version: 1}
	for i := 0; i < n; i++ {
		m.Nodes = append(m.Nodes, cluster.Node{ID: fmt.Sprintf("n%d", i), URL: urls[i]})
	}
	for i := 0; i < n; i++ {
		if err := srvs[i].EnableCluster(ClusterOptions{
			SelfID:     fmt.Sprintf("n%d", i),
			Map:        m.Clone(),
			Partitions: parts,
			Client:     cluster.NewClient(10 * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return srvs, urls
}

func httpDo(t testing.TB, method, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func mustDo(t testing.TB, method, url string, body []byte, want int) []byte {
	t.Helper()
	resp, data := httpDo(t, method, url, body, nil)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, data)
	}
	return data
}

// clusterRefs builds the four reference estimators matching the test
// create requests (same configs, single node, loss-free).
type clusterRefs struct {
	j *spatial.JoinEstimator
	r *spatial.RangeEstimator
	e *spatial.EpsJoinEstimator
	c *spatial.ContainmentEstimator
}

func newClusterRefs(t *testing.T, dom uint64) *clusterRefs {
	t.Helper()
	sz := spatial.Sizing{Instances: 64, Groups: 4}
	j, err := spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: dom, Seed: 1, Sizing: sz})
	if err != nil {
		t.Fatal(err)
	}
	r, err := spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 1, DomainSize: dom, Seed: 2, Sizing: sz})
	if err != nil {
		t.Fatal(err)
	}
	e, err := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{Dims: 2, DomainSize: dom, Eps: 8, Seed: 3, Sizing: sz})
	if err != nil {
		t.Fatal(err)
	}
	c, err := spatial.NewContainmentEstimator(spatial.ContainmentConfig{Dims: 2, DomainSize: dom, Seed: 4, Sizing: sz})
	if err != nil {
		t.Fatal(err)
	}
	return &clusterRefs{j: j, r: r, e: e, c: c}
}

func createFour(t *testing.T, base string, dom uint64) {
	t.Helper()
	for _, c := range []createRequest{
		{Name: "j", Kind: "join", Config: configRequest{Dims: 2, DomainSize: dom, Seed: 1, Instances: 64, Groups: 4}},
		{Name: "r", Kind: "range", Config: configRequest{Dims: 1, DomainSize: dom, Seed: 2, Instances: 64, Groups: 4}},
		{Name: "e", Kind: "epsjoin", Config: configRequest{Dims: 2, DomainSize: dom, Eps: 8, Seed: 3, Instances: 64, Groups: 4}},
		{Name: "c", Kind: "containment", Config: configRequest{Dims: 2, DomainSize: dom, Seed: 4, Instances: 64, Groups: 4}},
	} {
		body, _ := json.Marshal(c)
		mustDo(t, "POST", base+"/v1/estimators", body, http.StatusCreated)
	}
}

// TestClusterExactScatterGather is the headline exactness test: a 3-node
// cluster ingests a mixed stream (all four estimator kinds, routed
// through rotating nodes, deletes included) and every merged cluster
// snapshot - hence every estimate - is byte-identical to a loss-free
// single-node build of the same stream.
func TestClusterExactScatterGather(t *testing.T) {
	const dom = 1 << 12
	const n = 160
	_, urls := startCluster(t, 3, false)
	createFour(t, urls[0], dom)
	refs := newClusterRefs(t, dom)

	rng := rand.New(rand.NewSource(77))
	post := func(via int, name string, req updateRequest) {
		body, _ := json.Marshal(req)
		mustDo(t, "POST", urls[via]+"/v1/estimators/"+name+"/update", body, http.StatusOK)
	}
	var rects []geo.HyperRect
	for i := 0; i < n; i++ {
		wr := randRect(rng, dom)
		rect := geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])
		rects = append(rects, rect)
		ws := randRect(rng, dom)
		span := geo.Span1D(ws[0][0], ws[0][1])
		pt := geo.Point{rng.Uint64() % dom, rng.Uint64() % dom}
		via := i % 3
		switch i % 4 {
		case 0:
			post(via, "j", updateRequest{Side: "left", Rects: [][][2]uint64{wr}})
			if err := refs.j.InsertLeft(rect); err != nil {
				t.Fatal(err)
			}
		case 1:
			post(via, "j", updateRequest{Side: "right", Rects: [][][2]uint64{wr}})
			if err := refs.j.InsertRight(rect); err != nil {
				t.Fatal(err)
			}
			post(via, "r", updateRequest{Rects: [][][2]uint64{wireRect(span)}})
			if err := refs.r.Insert(span); err != nil {
				t.Fatal(err)
			}
		case 2:
			side, ins := "left", refs.e.InsertLeft
			if i%8 == 2 {
				side, ins = "right", refs.e.InsertRight
			}
			post(via, "e", updateRequest{Side: side, Points: [][]uint64{pt}})
			if err := ins(pt); err != nil {
				t.Fatal(err)
			}
		case 3:
			side, ins := "inner", refs.c.InsertInner
			if i%8 == 3 {
				side, ins = "outer", refs.c.InsertOuter
			}
			post(via, "c", updateRequest{Side: side, Rects: [][][2]uint64{wr}})
			if err := ins(rect); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Deletes must cancel exactly across the partitioned ingest (the
	// routing hash sends a delete to the partition holding its insert).
	for i := 0; i < 16; i += 4 {
		post(i%3, "j", updateRequest{Op: "delete", Side: "left", Rects: [][][2]uint64{wireRect(rects[i])}})
		if err := refs.j.DeleteLeft(rects[i]); err != nil {
			t.Fatal(err)
		}
	}

	wantSnaps := map[string][]byte{}
	for name, ref := range map[string]interface{ Marshal() ([]byte, error) }{
		"j": refs.j, "r": refs.r, "e": refs.e, "c": refs.c,
	} {
		want, err := ref.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wantSnaps[name] = want
		// Gathered snapshots must be identical no matter which node serves.
		for via := 0; via < 3; via++ {
			got := mustDo(t, "GET", urls[via]+"/v1/estimators/"+name+"/snapshot", nil, http.StatusOK)
			if !bytes.Equal(got, want) {
				t.Errorf("estimator %q via node %d: merged cluster snapshot differs from the single-node build", name, via)
			}
		}
	}

	// Estimates are computed from the merged counters, so they are
	// bit-identical to the single-node estimates.
	jEst, _, _, err := refs.j.CardinalityWithCounts()
	if err != nil {
		t.Fatal(err)
	}
	var got estimateResponse
	if err := json.Unmarshal(mustDo(t, "GET", urls[2]+"/v1/estimators/j/estimate", nil, http.StatusOK), &got); err != nil {
		t.Fatal(err)
	}
	if got.Value != jEst.Value || got.Mean != jEst.Mean {
		t.Errorf("cluster join estimate (%v, %v) != single-node (%v, %v)", got.Value, got.Mean, jEst.Value, jEst.Mean)
	}

	// List aggregates shard names back to base names; info sums counts.
	var list struct {
		Estimators []struct{ Name, Kind string } `json:"estimators"`
	}
	if err := json.Unmarshal(mustDo(t, "GET", urls[1]+"/v1/estimators", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Estimators) != 4 {
		t.Fatalf("cluster list has %d entries, want 4: %+v", len(list.Estimators), list.Estimators)
	}
	var info infoResponse
	if err := json.Unmarshal(mustDo(t, "GET", urls[0]+"/v1/estimators/r", nil, http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	if want := refs.r.Count(); info.Counts["data"] != want {
		t.Errorf("cluster info count %d, want %d", info.Counts["data"], want)
	}

	// Delete fans out; afterwards every node answers 404.
	mustDo(t, "DELETE", urls[0]+"/v1/estimators/e", nil, http.StatusOK)
	mustDo(t, "GET", urls[1]+"/v1/estimators/e/estimate", nil, http.StatusNotFound)
}

// TestClusterRebalanceMidIngest moves every partition of an estimator to
// a different node WHILE concurrent writers - plain updates through all
// three nodes, a keyed writer and a stream - keep ingesting, then proves
// the merged snapshot still matches a loss-free single-node replay: a move
// (image at a WAL cut, the shard's frames verbatim, sealed flip) must not
// lose or double-apply a record. The dedup marks move with the shards, so
// afterwards every acked keyed update resent through another router
// answers deduped. It logs each move's handoff and seal spans: the seal is
// the write stall a move puts on its source node.
func TestClusterRebalanceMidIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node handoff under concurrent load")
	}
	const dom = 1 << 12
	srvs, urls := startCluster(t, 3, true)
	for _, s := range srvs {
		s.Tracer().SetSampleRate(1)
	}
	body, _ := json.Marshal(createRequest{Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: dom, Seed: 9, Instances: 64, Groups: 4}})
	mustDo(t, "POST", urls[0]+"/v1/estimators", body, http.StatusCreated)

	type keyedUpdate struct {
		key  string
		body []byte
		rect geo.HyperRect
	}
	var mu sync.Mutex
	var sent []geo.HyperRect
	var keyed []keyedUpdate
	var streamed []spatial.UpdateRecord
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for !stopped() {
				wr := randRect(rng, dom)
				req, _ := json.Marshal(updateRequest{Side: "left", Rects: [][][2]uint64{wr}})
				resp, data := httpDo(t, "POST", urls[g]+"/v1/estimators/j/update", req, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d: update failed mid-rebalance: %d: %s", g, resp.StatusCode, data)
					return
				}
				mu.Lock()
				sent = append(sent, geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1]))
				mu.Unlock()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		for i := 0; !stopped(); i++ {
			wr := randRect(rng, dom)
			k := keyedUpdate{key: fmt.Sprintf("mid-%d", i), body: updateBody(t, "right", [][][2]uint64{wr}),
				rect: geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])}
			// A keyed update is resent until acked; its owners dedup.
			for attempt := 0; ; attempt++ {
				resp, data := httpDo(t, "POST", urls[i%3]+"/v1/estimators/j/update", k.body, map[string]string{"Idempotency-Key": k.key})
				if resp.StatusCode == http.StatusOK {
					break
				}
				if attempt == 4 {
					t.Errorf("keyed update %s failed mid-rebalance: %d: %s", k.key, resp.StatusCode, data)
					return
				}
			}
			mu.Lock()
			keyed = append(keyed, k)
			mu.Unlock()
		}
	}()
	stream, err := ingestclient.Dial(ingestclient.Options{BaseURL: urls[1], Estimator: "j", Session: "mid-move", DupEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		var history []spatial.UpdateRecord
		for !stopped() {
			recs := streamBatch(rng, 4, &history)
			if err := stream.Send(recs); err != nil {
				t.Errorf("stream send mid-rebalance: %v", err)
				return
			}
			mu.Lock()
			streamed = append(streamed, recs...)
			mu.Unlock()
		}
	}()

	// Let the writers get going, then move every partition to the node
	// after its owner, issuing each move through a different (often
	// non-owner) node so forwarding is exercised too.
	time.Sleep(200 * time.Millisecond)
	for p := 0; p < testPartitions; p++ {
		owner, _ := srvs[0].cluster.map_().Owner(cluster.ShardName("j", p))
		var idx int
		fmt.Sscanf(owner.ID, "n%d", &idx)
		rb, _ := json.Marshal(rebalanceRequest{Name: "j", Partition: p, Target: fmt.Sprintf("n%d", (idx+1)%3)})
		tid := fmt.Sprintf("%032x", 0x6d6f7665+p)
		var moved struct{ Moved bool }
		resp, data := httpDo(t, "POST", urls[p%3]+"/admin/rebalance", rb, tpHeader(tid))
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &moved) != nil || !moved.Moved {
			t.Fatalf("rebalance of partition %d: %d: %s", p, resp.StatusCode, data)
		}
		logMoveSpans(t, urls[p%3], tid, p)
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := stream.Flush(); err != nil {
		t.Fatalf("stream flush after the moves: %v", err)
	}
	if t.Failed() {
		return
	}

	// Every acked keyed update, resent through another router, finds its
	// marks at the partitions' new owners.
	for i, k := range keyed {
		var ur updateResponse
		resp, data := httpDo(t, "POST", urls[(i+1)%3]+"/v1/estimators/j/update", k.body, map[string]string{"Idempotency-Key": k.key})
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &ur) != nil || !ur.Deduped || ur.Applied != 0 {
			t.Fatalf("resend of %s after the moves: status %d: %s", k.key, resp.StatusCode, data)
		}
	}

	ref, err := spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: dom, Seed: 9,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, r := range sent {
		if err := ref.InsertLeft(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keyed {
		if err := ref.InsertRight(k.rect); err != nil {
			t.Fatal(err)
		}
	}
	applyRef(t, ref, streamed)
	mu.Unlock()
	want, err := ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for via := 0; via < 3; via++ {
		got := mustDo(t, "GET", urls[via]+"/v1/estimators/j/snapshot", nil, http.StatusOK)
		if !bytes.Equal(got, want) {
			t.Errorf("after rebalances: snapshot via node %d differs from the loss-free replay (%d plain, %d keyed, %d streamed records)",
				via, len(sent), len(keyed), len(streamed))
		}
	}
	t.Logf("rebalanced all %d partitions under %d plain and %d keyed updates and %d streamed records, exactness preserved",
		testPartitions, len(sent), len(keyed), len(streamed))

	// The map settled on a newer version with overrides on every node.
	var rr ringResponse
	if err := json.Unmarshal(mustDo(t, "GET", urls[2]+"/admin/ring", nil, http.StatusOK), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Map == nil || rr.Map.Version < 2 {
		t.Errorf("ring did not advance past rebalances: %+v", rr.Map)
	}
}

// logMoveSpans logs the durations of a move's rebalance.handoff and
// rebalance.seal spans, read from the move's trace (which the writers'
// traces may already have pushed out of the ring).
func logMoveSpans(t *testing.T, base, tid string, part int) {
	t.Helper()
	resp, data := httpDo(t, "GET", base+"/admin/trace/"+tid, nil, nil)
	var tr traceGetResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &tr) != nil {
		t.Logf("partition %d: move trace no longer retained (status %d)", part, resp.StatusCode)
		return
	}
	d := map[string]time.Duration{}
	for _, seg := range tr.Segments {
		for _, sp := range seg.Spans {
			d[sp.Name] = sp.Duration
		}
	}
	t.Logf("partition %d: rebalance.handoff %v, rebalance.seal %v", part, d["rebalance.handoff"], d["rebalance.seal"])
}

// TestClusterRingAdoption checks map versioning: stale broadcasts are
// ignored, newer ones win.
func TestClusterRingAdoption(t *testing.T) {
	srvs, urls := startCluster(t, 2, false)
	m := srvs[0].cluster.map_().Clone()
	m.Version = 5
	m.Overrides = map[string]string{cluster.ShardName("x", 0): "n1"}
	body, _ := json.Marshal(m)
	mustDo(t, "POST", urls[0]+"/admin/ring", body, http.StatusOK)
	if got := srvs[0].cluster.map_().Version; got != 5 {
		t.Fatalf("newer map not adopted: version %d", got)
	}
	stale := m.Clone()
	stale.Version = 3
	stale.Overrides = nil
	body, _ = json.Marshal(stale)
	mustDo(t, "POST", urls[0]+"/admin/ring", body, http.StatusOK)
	cur := srvs[0].cluster.map_()
	if cur.Version != 5 || len(cur.Overrides) != 1 {
		t.Fatalf("stale map overwrote a newer one: %+v", cur)
	}
}

// TestClusterMapPersistsAcrossRestart: rebalance overrides must survive a
// full-cluster restart - the saved partition map restores ownership while
// the (possibly changed) -peers flags stay authoritative for node
// addresses - or every moved shard would be stranded on a node the
// version-1 ring does not name.
func TestClusterMapPersistsAcrossRestart(t *testing.T) {
	const dom = 1 << 10
	dirs := []string{t.TempDir(), t.TempDir()}
	ids := []string{"n0", "n1"}

	boot := func() ([]*Server, []*httptest.Server, []string) {
		srvs := make([]*Server, 2)
		hts := make([]*httptest.Server, 2)
		urls := make([]string, 2)
		for i := 0; i < 2; i++ {
			var err error
			srvs[i], err = NewPersistentServer(PersistOptions{DataDir: dirs[i]})
			if err != nil {
				t.Fatal(err)
			}
			hts[i] = httptest.NewServer(srvs[i])
			urls[i] = hts[i].URL
		}
		m := &cluster.Map{Version: 1, Nodes: []cluster.Node{
			{ID: ids[0], URL: urls[0]}, {ID: ids[1], URL: urls[1]}}}
		for i := 0; i < 2; i++ {
			if err := srvs[i].EnableCluster(ClusterOptions{
				SelfID: ids[i], Map: m.Clone(), Partitions: testPartitions,
				Client: cluster.NewClient(10 * time.Second),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return srvs, hts, urls
	}
	srvs, hts, urls := boot()
	body, _ := json.Marshal(createRequest{Name: "m", Kind: "range",
		Config: configRequest{Dims: 1, DomainSize: dom, Seed: 21, Instances: 32, Groups: 4}})
	mustDo(t, "POST", urls[0]+"/v1/estimators", body, http.StatusCreated)

	ref, err := spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 1, DomainSize: dom, Seed: 21,
		Sizing: spatial.Sizing{Instances: 32, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		lo := rng.Uint64() % (dom - 2)
		hi := lo + 1 + rng.Uint64()%(dom-lo-1)
		ub, _ := json.Marshal(updateRequest{Rects: [][][2]uint64{{{lo, hi}}}})
		mustDo(t, "POST", urls[i%2]+"/v1/estimators/m/update", ub, http.StatusOK)
		if err := ref.Insert(geo.Span1D(lo, hi)); err != nil {
			t.Fatal(err)
		}
	}
	// Move partitions 0 and 2 to whichever node does not own them.
	for _, p := range []int{0, 2} {
		shard := cluster.ShardName("m", p)
		owner, _ := srvs[0].cluster.map_().Owner(shard)
		target := ids[0]
		if owner.ID == ids[0] {
			target = ids[1]
		}
		rb, _ := json.Marshal(rebalanceRequest{Name: "m", Partition: p, Target: target})
		mustDo(t, "POST", urls[0]+"/admin/rebalance", rb, http.StatusOK)
	}
	want, err := ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDo(t, "GET", urls[1]+"/v1/estimators/m/snapshot", nil, http.StatusOK); !bytes.Equal(got, want) {
		t.Fatal("pre-restart snapshot differs from reference")
	}

	// Full-cluster restart: new processes, NEW addresses (httptest picks
	// fresh ports), same data dirs and identities.
	for i := 0; i < 2; i++ {
		hts[i].Close()
		if err := srvs[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	srvs2, hts2, urls2 := boot()
	defer func() {
		for i := 0; i < 2; i++ {
			hts2[i].Close()
			srvs2[i].Close()
		}
	}()
	if v := srvs2[0].cluster.map_().Version; v < 3 {
		t.Fatalf("restarted node lost the rebalanced map: version %d", v)
	}
	for via := 0; via < 2; via++ {
		got := mustDo(t, "GET", urls2[via]+"/v1/estimators/m/snapshot", nil, http.StatusOK)
		if !bytes.Equal(got, want) {
			t.Errorf("post-restart snapshot via node %d differs from reference", via)
		}
	}
}

// TestClusterKeyedUpdateLeavesNoRouterMark: a keyed update routed through
// a node that owns none of its partitions leaves no mark there - the
// key's marks live at its owners alone - and a resend of the key through
// another router is still a durable no-op that leaves the estimate as it
// was.
func TestClusterKeyedUpdateLeavesNoRouterMark(t *testing.T) {
	srvs, urls := startCluster(t, 3, true)
	createStreamJoin(t, urls[0])
	ref := refJoin(t)
	wr := randRect(rand.New(rand.NewSource(47)), streamDom)
	rect := geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])
	rec := spatial.UpdateRecord{Op: spatial.OpInsert, Side: spatial.SideLeft, Rect: rect}
	shard := cluster.ShardName("j", cluster.PartitionOf(rec.RoutingHash(), testPartitions))
	owner, _ := srvs[0].cluster.map_().Owner(shard)
	var routers []string // the nodes owning none of the update
	for i, u := range urls {
		if fmt.Sprintf("n%d", i) != owner.ID {
			routers = append(routers, u)
		}
	}
	a, b := routers[0], routers[1]

	body := mustJSON(t, updateRequest{Side: "left", Rects: [][][2]uint64{wr}})
	hdr := map[string]string{"Idempotency-Key": "no-router-mark", "Content-Type": "application/json"}
	if resp, data := httpDo(t, "POST", a+"/v1/estimators/j/update", body, hdr); resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"applied":1`)) {
		t.Fatalf("keyed update via A: status %d, body %s", resp.StatusCode, data)
	}
	if err := ref.InsertLeft(rect); err != nil {
		t.Fatal(err)
	}
	var list sessionListResponse
	if err := json.Unmarshal(mustDo(t, "GET", a+"/admin/sessions", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	for _, row := range list.Sessions {
		if strings.HasPrefix(row.Session, idemSessionPrefix) {
			t.Fatalf("router A holds a key mark: %+v", row)
		}
	}
	if err := json.Unmarshal(mustDo(t, "GET", owner.URL+"/admin/sessions?estimator="+url.QueryEscape(shard), nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].Session != idemSessionPrefix+"no-router-mark" {
		t.Fatalf("owner %s marks for %s: %+v, want the key's one mark", owner.ID, shard, list.Sessions)
	}

	before := mustDo(t, "GET", b+"/v1/estimators/j/estimate", nil, http.StatusOK)
	if resp, data := httpDo(t, "POST", b+"/v1/estimators/j/update", body, hdr); resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"deduped":true`)) {
		t.Fatalf("resend via B: status %d, body %s; want 200 with deduped", resp.StatusCode, data)
	}
	if after := mustDo(t, "GET", b+"/v1/estimators/j/estimate", nil, http.StatusOK); !bytes.Equal(before, after) {
		t.Fatalf("the resend changed the estimate: %s -> %s", before, after)
	}
	for _, u := range urls {
		mustMatchRef(t, u, ref, "after the resend")
	}
}
