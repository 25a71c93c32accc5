package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/internal/cluster"
)

// Grouped cluster reads: a router reads the partitions of one estimator
// with one internal request per owner node, revalidating the cached
// partitions of each owner together.

const groupParts = 8

// groupFixture is a 3-node, 8-partition cluster holding one join
// estimator "j" and its loss-free single-node reference.
type groupFixture struct {
	srvs []*Server
	urls []string
	ref  *spatial.JoinEstimator
	recs []spatial.UpdateRecord
}

// newGroupFixture starts the cluster, gives every node a breaker
// registry that stays open once tripped (so a test can take a node down
// from the router's point of view), creates "j" and ingests a stream
// through rotating nodes.
func newGroupFixture(t *testing.T, persistent bool) *groupFixture {
	t.Helper()
	srvs, urls := startClusterParts(t, 3, persistent, groupParts)
	for _, s := range srvs {
		s.cluster.health = cluster.NewHealth(cluster.HealthOptions{OpenFor: time.Hour})
	}
	const dom = 1 << 12
	mustDo(t, "POST", urls[0]+"/v1/estimators", mustJSON(t, createRequest{Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: dom, Seed: 1, Instances: 64, Groups: 4}}), http.StatusCreated)
	ref, err := spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: dom, Seed: 1,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	f := &groupFixture{srvs: srvs, urls: urls, ref: ref}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 48; i++ {
		f.insert(t, i%3, []string{"left", "right"}[i%2], randRect(rng, dom))
	}
	return f
}

// insert routes one rectangle through node via and mirrors it into the
// reference.
func (f *groupFixture) insert(t *testing.T, via int, side string, wr [][2]uint64) {
	t.Helper()
	mustDo(t, "POST", f.urls[via]+"/v1/estimators/j/update",
		mustJSON(t, updateRequest{Side: side, Rects: [][][2]uint64{wr}}), http.StatusOK)
	f.mirror(t, side, wr)
}

// mirror applies one acknowledged insert to the reference.
func (f *groupFixture) mirror(t *testing.T, side string, wr [][2]uint64) {
	t.Helper()
	recs, err := updateRecords(&updateRequest{Side: side, Rects: [][][2]uint64{wr}})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if err := f.ref.Apply(rec); err != nil {
		t.Fatal(err)
	}
	f.recs = append(f.recs, rec)
}

// owned returns the partitions of "j" each node owns under the router's
// map.
func (f *groupFixture) owned() map[string][]int {
	out := map[string][]int{}
	m := f.srvs[0].cluster.map_()
	for p := 0; p < groupParts; p++ {
		owner, _ := m.Owner(cluster.ShardName("j", p))
		out[owner.ID] = append(out[owner.ID], p)
	}
	return out
}

// estimate reads "j" through node via.
func (f *groupFixture) estimate(t *testing.T, via int, query string) estimateResponse {
	t.Helper()
	var er estimateResponse
	if err := json.Unmarshal(mustDo(t, "GET", f.urls[via]+"/v1/estimators/j/estimate"+query, nil, http.StatusOK), &er); err != nil {
		t.Fatal(err)
	}
	return er
}

// wantSnapshot requires the cluster-wide snapshot through node via to be
// byte-identical to the reference.
func (f *groupFixture) wantSnapshot(t *testing.T, via int, what string) {
	t.Helper()
	want, err := f.ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDo(t, "GET", f.urls[via]+"/v1/estimators/j/snapshot", nil, http.StatusOK); !bytes.Equal(got, want) {
		t.Fatalf("%s: cluster snapshot via node %d differs from the loss-free reference", what, via)
	}
}

// snapshotGets returns a node's served snapshot GETs, internal grouped
// reads included.
func snapshotGets(t *testing.T, url string) float64 {
	return max(0, metricValue(t, url, "spatialserve_requests_total", `endpoint="snapshot_get"`))
}

// TestClusterGroupedReadOneCallPerOwner: a warm strict read revalidates
// every partition with at most one internal request per remote owner -
// counted on the owners themselves - and hits the read cache.
func TestClusterGroupedReadOneCallPerOwner(t *testing.T) {
	f := newGroupFixture(t, false)
	owned := f.owned()
	grouped := false
	for id, parts := range owned {
		grouped = grouped || (id != "n0" && len(parts) > 1)
	}
	if !grouped {
		t.Fatalf("no remote owner holds two partitions (%v): the test would not exercise grouping", owned)
	}
	f.estimate(t, 0, "") // cold: fills the read cache
	hits := metricValue(t, f.urls[0], "spatialserve_cluster_readcache_events_total", `outcome="hit"`)
	before := make([]float64, 3)
	for i, u := range f.urls {
		before[i] = snapshotGets(t, u)
	}
	if got := f.estimate(t, 0, ""); got.Value != f.refValue(t) {
		t.Fatalf("warm estimate %v, reference %v", got.Value, f.refValue(t))
	}
	for i, u := range f.urls {
		calls := snapshotGets(t, u) - before[i]
		id := fmt.Sprintf("n%d", i)
		want := 0.0
		if i != 0 && len(owned[id]) > 0 {
			want = 1
		}
		if calls != want {
			t.Errorf("node %s (owns partitions %v) served %v snapshot requests for one warm read, want %v", id, owned[id], calls, want)
		}
	}
	if got := metricValue(t, f.urls[0], "spatialserve_cluster_readcache_events_total", `outcome="hit"`); got != hits+1 {
		t.Errorf("warm read was not a read-cache hit: hits %v -> %v", hits, got)
	}
	f.wantSnapshot(t, 0, "warm read")
}

// refValue is the reference join estimate.
func (f *groupFixture) refValue(t *testing.T) float64 {
	est, err := f.ref.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	return est.Value
}

// TestClusterGroupedReadStaleMap: a router still holding the map from
// before a partition moved reads the old owner's group, learns the moved
// partition is not there, and retries it alone at its new owner after a
// map refresh - answering bit-identically.
func TestClusterGroupedReadStaleMap(t *testing.T) {
	f := newGroupFixture(t, false)
	f.wantSnapshot(t, 0, "before the move") // warms the router's cache
	stale := f.srvs[0].cluster.map_()
	var from, to string
	var part int
	for id, parts := range f.owned() {
		if id != "n0" && len(parts) > 1 {
			from, part = id, parts[0]
		}
	}
	if from == "" {
		t.Fatal("no remote owner holds two partitions")
	}
	for _, id := range []string{"n1", "n2"} {
		if id != from {
			to = id
		}
	}
	mustDo(t, "POST", f.urls[1]+"/admin/rebalance", mustJSON(t, rebalanceRequest{Name: "j", Partition: part, Target: to}), http.StatusOK)
	f.insert(t, 2, "left", [][2]uint64{{5, 900}, {7, 1100}})

	f.srvs[0].cluster.pmap.Store(stale)
	f.wantSnapshot(t, 0, "stale map")
	if v := f.srvs[0].cluster.map_().Version; v <= stale.Version {
		t.Fatalf("router kept map version %d after a not-here partition", v)
	}
	f.srvs[0].cluster.pmap.Store(stale)
	if got := f.estimate(t, 0, ""); got.Value != f.refValue(t) {
		t.Fatalf("estimate through a stale map %v, reference %v", got.Value, f.refValue(t))
	}
}

// TestClusterPartialReadNoCacheEntry: with one owner down, ?partial=ok
// merges exactly the other owners' partitions, reports how many it
// answered, and leaves no read-cache entry behind; the strict read fails.
func TestClusterPartialReadNoCacheEntry(t *testing.T) {
	f := newGroupFixture(t, false)
	owned := f.owned()
	victim := "n1"
	if len(owned[victim]) == 0 || len(owned[victim]) == groupParts {
		t.Fatalf("node %s owns %v: cannot stage a partial read", victim, owned[victim])
	}
	for i := 0; i < cluster.DefaultFailureThreshold; i++ {
		f.srvs[0].cluster.health.Record(victim, false, 0)
	}
	resp, data := httpDo(t, "GET", f.urls[0]+"/v1/estimators/j/estimate", nil, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict read with an owner down: status %d: %s", resp.StatusCode, data)
	}
	got := f.estimate(t, 0, "?partial=ok")
	if want := groupParts - len(owned[victim]); !got.Partial || got.PartitionsAnswered != want || got.PartitionsTotal != groupParts {
		t.Fatalf("partial read = {partial:%v answered:%d total:%d}, want {true %d %d}",
			got.Partial, got.PartitionsAnswered, got.PartitionsTotal, want, groupParts)
	}
	// Exact over the answered partitions: the reference rebuilt from the
	// records the live owners hold.
	part, err := spatial.NewJoinEstimator(f.ref.Config())
	if err != nil {
		t.Fatal(err)
	}
	down := map[int]bool{}
	for _, p := range owned[victim] {
		down[p] = true
	}
	for _, rec := range f.recs {
		if !down[cluster.PartitionOf(rec.RoutingHash(), groupParts)] {
			if err := part.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want, err := part.Cardinality(); err != nil || got.Value != want.Value {
		t.Fatalf("partial estimate %v, answered-partitions reference %v (%v)", got.Value, want.Value, err)
	}
	if e := f.srvs[0].cluster.readCacheGet("j"); e != nil {
		t.Fatal("a partial read left a read-cache entry")
	}
}

// TestClusterPartialBatchEstimate: a batch of range queries with one
// owner down and ?partial=ok carries the same degraded-read report as a
// single estimate, and every result is exact over the answered
// partitions; the strict batch fails.
func TestClusterPartialBatchEstimate(t *testing.T) {
	f := newGroupFixture(t, false)
	const dom = 1 << 12
	mustDo(t, "POST", f.urls[0]+"/v1/estimators", mustJSON(t, createRequest{Name: "r", Kind: "range",
		Config: configRequest{Dims: 1, DomainSize: dom, Seed: 2, Instances: 64, Groups: 4}}), http.StatusCreated)
	rng := rand.New(rand.NewSource(19))
	var recs []spatial.UpdateRecord
	for i := 0; i < 48; i++ {
		wr := randRect(rng, dom)[:1]
		mustDo(t, "POST", f.urls[i%3]+"/v1/estimators/r/update",
			mustJSON(t, updateRequest{Rects: [][][2]uint64{wr}}), http.StatusOK)
		rs, err := updateRecords(&updateRequest{Rects: [][][2]uint64{wr}})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rs...)
	}
	// The victim is a remote owner of some of r's partitions.
	m := f.srvs[0].cluster.map_()
	owned := map[string][]int{}
	for p := 0; p < groupParts; p++ {
		owner, _ := m.Owner(cluster.ShardName("r", p))
		owned[owner.ID] = append(owned[owner.ID], p)
	}
	victim := "n1"
	if len(owned[victim]) == 0 {
		victim = "n2"
	}
	if len(owned[victim]) == 0 {
		t.Fatalf("no remote node owns a partition of r: %v", owned)
	}
	for i := 0; i < cluster.DefaultFailureThreshold; i++ {
		f.srvs[0].cluster.health.Record(victim, false, 0)
	}

	queries := [][][2]uint64{{{0, dom / 2}}, {{dom / 4, dom - 1}}, {{100, 3000}}}
	body := mustJSON(t, estimateRequest{Queries: queries})
	if resp, data := httpDo(t, "POST", f.urls[0]+"/v1/estimators/r/estimate", body, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict batch with an owner down: status %d: %s", resp.StatusCode, data)
	}
	var got batchEstimateResponse
	if err := json.Unmarshal(mustDo(t, "POST", f.urls[0]+"/v1/estimators/r/estimate?partial=ok", body, http.StatusOK), &got); err != nil {
		t.Fatal(err)
	}
	if want := groupParts - len(owned[victim]); !got.Partial || got.PartitionsAnswered != want || got.PartitionsTotal != groupParts {
		t.Fatalf("partial batch = {partial:%v answered:%d total:%d}, want {true %d %d}",
			got.Partial, got.PartitionsAnswered, got.PartitionsTotal, want, groupParts)
	}

	part, err := spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 1, DomainSize: dom, Seed: 2,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	down := map[int]bool{}
	for _, p := range owned[victim] {
		down[p] = true
	}
	for _, rec := range recs {
		if !down[cluster.PartitionOf(rec.RoutingHash(), groupParts)] {
			if err := part.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantEsts, _, err := part.EstimateBatch([]geo.HyperRect{decodeQuery(queries[0]), decodeQuery(queries[1]), decodeQuery(queries[2])})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(got.Results), len(queries))
	}
	for i, r := range got.Results {
		if r.Error != "" || r.Value != wantEsts[i].Value || r.Partial {
			t.Fatalf("result %d = %+v, want value %v from the answered partitions and no per-result report", i, r, wantEsts[i].Value)
		}
	}
}

// TestClusterReplicaReadTraced: with an owner's breaker open and a read
// replica attached, the owner's group is read from the replica through
// the same traced call as every other hop - the replica's spans join the
// router's trace tree - and the answer stays exact.
func TestClusterReplicaReadTraced(t *testing.T) {
	f := newGroupFixture(t, true)
	victim := "n1"
	if len(f.owned()[victim]) == 0 {
		t.Fatalf("node %s owns no partition", victim)
	}
	follower, err := NewPersistentServer(PersistOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fh := httptest.NewServer(follower)
	t.Cleanup(fh.Close)
	t.Cleanup(func() { follower.Close() })
	if err := follower.StartReplica(f.urls[1], 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ringPos := func(url string) (walPos, replicaPos string) {
		var rr ringResponse
		if err := json.Unmarshal(mustDo(t, "GET", url+"/admin/ring", nil, http.StatusOK), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Replica != nil {
			replicaPos = rr.Replica.Pos
		}
		return rr.WalPos, replicaPos
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		leader, _ := ringPos(f.urls[1])
		if _, pos := ringPos(fh.URL); pos == leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never caught up")
		}
	}
	m := f.srvs[0].cluster.map_().Clone()
	m.Replicas = map[string]string{victim: fh.URL}
	m.Version++
	if !f.srvs[0].cluster.adopt(m) {
		t.Fatal("router refused the replica map")
	}
	for i := 0; i < cluster.DefaultFailureThreshold; i++ {
		f.srvs[0].cluster.health.Record(victim, false, 0)
	}
	for _, s := range append(f.srvs, follower) {
		s.Tracer().SetSampleRate(1)
	}

	tid := "dddddddddddddddddddddddddddddddd"
	resp, data := httpDo(t, "GET", f.urls[0]+"/v1/estimators/j/estimate", nil, tpHeader(tid))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate with the owner's breaker open: status %d: %s", resp.StatusCode, data)
	}
	var er estimateResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Value != f.refValue(t) || er.Partial {
		t.Fatalf("replica-served estimate %+v (%v), reference %v", er, err, f.refValue(t))
	}

	local := getTrace(t, fh.URL, tid+"?local=1")
	tree := getTrace(t, f.urls[0], tid)
	if len(tree.Tree) != 1 {
		t.Fatalf("trace has %d roots, want 1 stitched tree: %v", len(tree.Tree), spanNames(tree))
	}
	parents := map[string]string{}
	var walk func(n *traceTreeNode)
	walk = func(n *traceTreeNode) {
		for _, c := range n.Children {
			parents[c.SpanID] = n.Name
			walk(c)
		}
	}
	walk(tree.Tree[0])
	servedByReplica := false
	for _, seg := range local.Segments {
		for _, sp := range seg.Spans {
			parent, ok := parents[sp.SpanID]
			if !ok {
				t.Errorf("replica span %q is missing from the router's tree", sp.Name)
			}
			servedByReplica = servedByReplica || (sp.Name == "peer snapshot_get" && parent == "fanout.snapshot")
		}
	}
	if !servedByReplica {
		t.Fatalf("no replica snapshot_get span under a router fanout.snapshot span: %v", spanNames(tree))
	}
}

// TestClusterReplicaLagIsNoMove: the owner of every partition is
// unreachable and its attached replica does not hold the estimator (it
// lags behind the create). The replica's "not here" is a failed fallback,
// not a move: a strict read fails with the owner's error (502, not 404
// "no estimator"), keeps the read-cache entry, and sends the unreachable
// owner no map refresh.
func TestClusterReplicaLagIsNoMove(t *testing.T) {
	srvs, urls := startClusterParts(t, 2, false, 1)
	for _, s := range srvs {
		s.cluster.health = cluster.NewHealth(cluster.HealthOptions{OpenFor: time.Hour})
	}
	mustDo(t, "POST", urls[0]+"/v1/estimators", mustJSON(t, createRequest{Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: 1 << 10, Seed: 1, Instances: 16, Groups: 4}}), http.StatusCreated)
	owner, _ := srvs[0].cluster.map_().Owner(cluster.ShardName("j", 0))
	ri, oi := 0, 1
	if owner.ID == "n0" {
		ri, oi = 1, 0
	}
	router := srvs[ri].cluster
	mustDo(t, "GET", urls[ri]+"/v1/estimators/j/estimate", nil, http.StatusOK) // warms the read cache

	lagging := httptest.NewServer(NewServer())
	t.Cleanup(lagging.Close)
	m := router.map_().Clone()
	m.Replicas = map[string]string{owner.ID: lagging.URL}
	m.Version++
	if !router.adopt(m) {
		t.Fatal("router refused the replica map")
	}
	for i := 0; i < cluster.DefaultFailureThreshold; i++ {
		router.health.Record(owner.ID, false, 0)
	}
	admin := metricValue(t, urls[oi], "spatialserve_requests_total", `endpoint="admin"`)
	resp, data := httpDo(t, "GET", urls[ri]+"/v1/estimators/j/estimate", nil, nil)
	if resp.StatusCode != http.StatusBadGateway || !bytes.Contains(data, []byte(errBreakerOpen.Error())) {
		t.Fatalf("strict read with the owner down and a lagging replica: status %d: %s (want 502 carrying the owner's error)", resp.StatusCode, data)
	}
	if got := metricValue(t, urls[oi], "spatialserve_requests_total", `endpoint="admin"`); got != admin {
		t.Errorf("the unreachable owner was sent %v map refreshes", got-admin)
	}
	if router.readCacheGet("j") == nil {
		t.Error("the failed read dropped the read-cache entry of an existing estimator")
	}
}

// TestClusterSnapshotValidatorContract records every snapshot a cluster
// serves - each partition from its owner and the merged estimator through
// every router - across inserts, deletes, a shard /merge, a shard
// snapshot PUT, rebalance handoffs and a delete plus re-create, for all
// four kinds, and requires that a validator never carries two bodies and
// that every router hands out the same cluster-wide tag, unchanged by
// read-cache evictions.
func TestClusterSnapshotValidatorContract(t *testing.T) {
	srvs, urls := startCluster(t, 3, true)
	ledger := newTagLedger(t)
	for _, k := range contractKinds {
		mustDo(t, "POST", urls[0]+"/v1/estimators", mustJSON(t, k.create), http.StatusCreated)
	}
	rng := rand.New(rand.NewSource(73))
	get := func(url string) (string, []byte) {
		resp, body := httpDo(t, "GET", url, nil, map[string]string{"Accept-Encoding": "identity"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
		}
		return resp.Header.Get("ETag"), body
	}
	shardURL := func(name string, p int, suffix string) string {
		shard := cluster.ShardName(name, p)
		owner, _ := srvs[0].cluster.map_().Owner(shard)
		return owner.URL + shardPath(shard, suffix)
	}
	// observe records every snapshot and returns each estimator's
	// cluster-wide tag, which - derived from the partitions' validators -
	// every router must agree on.
	observe := func(step string) map[string]string {
		t.Helper()
		merged := map[string]string{}
		for _, k := range contractKinds {
			for via, u := range urls {
				tag, body := get(u + "/v1/estimators/" + k.create.Name + "/snapshot")
				ledger.record(fmt.Sprintf("%s %s via n%d", step, k.create.Name, via), tag, body)
				if first, ok := merged[k.create.Name]; tag == "" || ok && tag != first {
					t.Fatalf("%s: %s via n%d has cluster-wide tag %q, n0 gave %q", step, k.create.Name, via, tag, first)
				}
				merged[k.create.Name] = tag
			}
			for p := 0; p < testPartitions; p++ {
				tag, body := get(shardURL(k.create.Name, p, "/snapshot"))
				ledger.record(fmt.Sprintf("%s %s#%d", step, k.create.Name, p), tag, body)
			}
		}
		return merged
	}
	write := func(op string, n int) {
		for i := 0; i < n; i++ {
			for _, k := range contractKinds {
				mustDo(t, "POST", urls[i%3]+"/v1/estimators/"+k.create.Name+"/update", mustJSON(t, k.update(rng, op)), http.StatusOK)
			}
		}
	}
	internal := map[string]string{headerInternal: "1"}
	observe("create")
	write("insert", 12)
	inserted := observe("insert")
	for _, srv := range srvs {
		for _, k := range contractKinds {
			srv.cluster.readCacheDrop(k.create.Name)
		}
	}
	if quiet := observe("quiet, read caches dropped"); !maps.Equal(quiet, inserted) {
		t.Fatalf("cluster-wide tags changed with no write: %v, then %v", inserted, quiet)
	}
	write("delete", 2)
	observe("delete")
	for _, k := range contractKinds {
		_, body := get(shardURL(k.create.Name, 1, "/snapshot"))
		if resp, data := httpDo(t, "POST", shardURL(k.create.Name, 0, "/merge"), body, internal); resp.StatusCode != http.StatusOK {
			t.Fatalf("shard merge: %d: %s", resp.StatusCode, data)
		}
		if resp, data := httpDo(t, "PUT", shardURL(k.create.Name, 2, "/snapshot"), body, internal); resp.StatusCode != http.StatusOK {
			t.Fatalf("shard snapshot PUT: %d: %s", resp.StatusCode, data)
		}
	}
	observe("merge and put")
	for _, k := range contractKinds {
		for p := 0; p < testPartitions; p += 2 {
			owner, _ := srvs[0].cluster.map_().Owner(cluster.ShardName(k.create.Name, p))
			target := fmt.Sprintf("n%d", (int(owner.ID[1]-'0')+1)%3)
			mustDo(t, "POST", urls[p%3]+"/admin/rebalance", mustJSON(t, rebalanceRequest{Name: k.create.Name, Partition: p, Target: target}), http.StatusOK)
		}
	}
	observe("rebalance")
	write("insert", 3)
	observe("insert after rebalance")
	for _, k := range contractKinds {
		mustDo(t, "DELETE", urls[1]+"/v1/estimators/"+k.create.Name, nil, http.StatusOK)
		mustDo(t, "POST", urls[2]+"/v1/estimators", mustJSON(t, k.create), http.StatusCreated)
	}
	observe("re-create")
	write("insert", 3)
	observe("insert after re-create")
}

// TestClusterGroupedReadConcurrent: routers serve estimates and
// cluster-wide snapshots from several goroutines at once while a writer
// keeps invalidating partitions - the read cache and the grouped reads
// are shared state - and the quiesced cluster still gathers exactly.
func TestClusterGroupedReadConcurrent(t *testing.T) {
	f := newGroupFixture(t, false)
	stop := make(chan struct{})
	done := make(chan struct{})
	var acked []updateRequest // written by the writer, read after done
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(23))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := updateRequest{Side: []string{"left", "right"}[i%2], Rects: [][][2]uint64{randRect(rng, 1<<12)}}
			body, _ := json.Marshal(req)
			resp, err := http.Post(f.urls[1]+"/v1/estimators/j/update", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent update: status %d", resp.StatusCode)
				return
			}
			acked = append(acked, req)
		}
	}()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 25 && err == nil; i++ {
				path := "/v1/estimators/j/estimate"
				if i%2 == 1 {
					path = "/v1/estimators/j/snapshot"
				}
				resp, err2 := http.Get(f.urls[g%2] + path)
				if err2 != nil {
					err = err2
					break
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("GET %s via node %d: status %d", path, g%2, resp.StatusCode)
				}
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-done
	for _, req := range acked {
		f.mirror(t, req.Side, req.Rects[0])
	}
	for via := range f.urls {
		f.wantSnapshot(t, via, "after concurrent reads")
	}
}

// TestClusterReadAfterAck: once a keyed single-record update routed by
// one router is acknowledged, every warm router's estimate and
// cluster-wide snapshot include it - an owner answering "unchanged" to a
// validator its write made stale would fail the very next read.
func TestClusterReadAfterAck(t *testing.T) {
	f := newGroupFixture(t, false)
	for via := range f.urls {
		f.estimate(t, via, "") // warms the read cache and peer connections
		f.wantSnapshot(t, via, "warm-up")
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 40; i++ {
		side, wr := []string{"left", "right"}[i%2], randRect(rng, 1<<12)
		body := mustJSON(t, updateRequest{Side: side, Rects: [][][2]uint64{wr}})
		hdr := map[string]string{"Idempotency-Key": fmt.Sprintf("read-after-ack-%d", i), "Content-Type": "application/json"}
		if resp, data := httpDo(t, "POST", f.urls[i%3]+"/v1/estimators/j/update", body, hdr); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: keyed update via n%d: status %d: %s", i, i%3, resp.StatusCode, data)
		}
		f.mirror(t, side, wr)
		for via := range f.urls {
			if got := f.estimate(t, via, ""); got.Value != f.refValue(t) {
				t.Fatalf("round %d: estimate via n%d right after the ack of an update routed by n%d is %v, reference %v", i, via, i%3, got.Value, f.refValue(t))
			}
			f.wantSnapshot(t, via, fmt.Sprintf("round %d, update routed by n%d", i, i%3))
		}
	}
}

// TestClusterPeerConnections: a router's peer connections are reused
// across reads, a connection its owner closed costs a redial rather than
// a failure, concurrent readers leave a bounded idle pool behind, and
// closing the servers ends every connection (the fixture's goroutine
// leak check).
func TestClusterPeerConnections(t *testing.T) {
	f := newGroupFixture(t, false)
	router := f.srvs[0].cluster
	var owners []int
	for i := 1; i < len(f.srvs); i++ {
		if len(f.owned()[fmt.Sprintf("n%d", i)]) > 0 {
			owners = append(owners, i)
		}
	}
	if len(owners) == 0 {
		t.Fatal("no remote node owns a partition of j")
	}
	warm := func(what string) {
		t.Helper()
		if got := f.estimate(t, 0, ""); got.Value != f.refValue(t) {
			t.Fatalf("%s: estimate %v, reference %v", what, got.Value, f.refValue(t))
		}
	}
	dials := func() map[int]int {
		out := map[int]int{}
		for _, i := range owners {
			out[i], _ = router.client.PeerStats(f.urls[i])
		}
		return out
	}
	warm("cold")
	warm("warm")

	// Every owner closes its end of every connection it serves: the next
	// read redials each owner once and records no failure.
	stale := dials()
	for _, i := range owners {
		f.srvs[i].peers.Drop()
	}
	warm("after the owners closed their connections")
	for _, i := range owners {
		if d, _ := router.client.PeerStats(f.urls[i]); d != stale[i]+1 {
			t.Fatalf("n%d: %d dials after its connections were closed, want %d", i, d, stale[i]+1)
		}
	}
	for _, h := range router.health.Snapshot() {
		if h.ConsecutiveFailures != 0 || h.State != "closed" {
			t.Fatalf("after stale connections, the router's health for %s is %+v", h.Node, h)
		}
	}

	before := dials()
	for i := 0; i < 20; i++ {
		warm(fmt.Sprintf("sequential read %d", i))
	}
	if after := dials(); !maps.Equal(after, before) {
		t.Fatalf("20 sequential warm reads dialed: %v -> %v", before, after)
	}

	const readers = 16
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func() {
			var err error
			for i := 0; i < 10 && err == nil; i++ {
				resp, gerr := http.Get(f.urls[0] + "/v1/estimators/j/estimate")
				if gerr != nil {
					err = gerr
					break
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("concurrent estimate: status %d", resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range owners {
		if d, idle := router.client.PeerStats(f.urls[i]); idle < 1 || idle > readers || d-before[i] > readers {
			t.Fatalf("after %d concurrent readers, n%d: %d new dials, %d idle; want at most %d of each", readers, i, d-before[i], idle, readers)
		}
	}
}
