package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	spatial "repro"
	"repro/geo"
)

// Cluster-mode tenant tests: tenant configs are cluster metadata
// (broadcast to every node), shard keys carry the tenant prefix, budgets
// are enforced at the routing node with exact partitions x words cost
// accounting, and the router's read cache answers repeat gathers from
// revalidated 304s.

// putTenantURL registers a tenant through a live node.
func putTenantURL(t *testing.T, base, tenant string, cfg TenantConfig) {
	t.Helper()
	body, _ := json.Marshal(cfg)
	mustDo(t, "PUT", base+"/v1/tenants/"+tenant, body, http.StatusOK)
}

// metricValue sums the samples of one family matching every label
// fragment on a node's /metrics page; -1 when absent.
func metricValue(t *testing.T, base, name string, labelFrags ...string) float64 {
	t.Helper()
	body := mustDo(t, "GET", base+"/metrics", nil, http.StatusOK)
	sum, found := 0.0, false
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || !strings.HasPrefix(line, name) {
			continue
		}
		ok := true
		for _, f := range labelFrags {
			if !strings.Contains(line, f) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("parsing sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		return -1
	}
	return sum
}

// TestClusterTenantBitIdentical proves tenancy does not perturb the
// exactness invariant: two tenants' same-named estimators, ingested
// through rotating nodes of a 3-node cluster, gather to snapshots
// byte-identical to loss-free single-node reference builds.
func TestClusterTenantBitIdentical(t *testing.T) {
	const dom = 1 << 12
	_, urls := startCluster(t, 3, false)
	putTenantURL(t, urls[0], "acme", TenantConfig{})
	putTenantURL(t, urls[1], "umbrella", TenantConfig{})

	sz := spatial.Sizing{Instances: 64, Groups: 4}
	mkRef := func(seed uint64) *spatial.JoinEstimator {
		j, err := spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: dom, Seed: seed, Sizing: sz})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	refs := map[string]*spatial.JoinEstimator{"acme": mkRef(11), "umbrella": mkRef(22)}
	for tenant, seed := range map[string]uint64{"acme": 11, "umbrella": 22} {
		body, _ := json.Marshal(createRequest{Name: "x", Kind: "join",
			Config: configRequest{Dims: 2, DomainSize: dom, Seed: seed, Instances: 64, Groups: 4}})
		// Tenant registration was broadcast, so any node can route the create.
		mustDo(t, "POST", urls[1]+"/v1/tenants/"+tenant+"/estimators", body, http.StatusCreated)
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		tenant := "acme"
		if i%2 == 1 {
			tenant = "umbrella"
		}
		wr := randRect(rng, dom)
		rect := geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])
		side := "left"
		ins := refs[tenant].InsertLeft
		if i%4 >= 2 {
			side, ins = "right", refs[tenant].InsertRight
		}
		body, _ := json.Marshal(updateRequest{Side: side, Rects: [][][2]uint64{wr}})
		mustDo(t, "POST", urls[i%3]+"/v1/tenants/"+tenant+"/estimators/x/update", body, http.StatusOK)
		if err := ins(rect); err != nil {
			t.Fatal(err)
		}
	}

	for tenant, ref := range refs {
		want, err := ref.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		for via := 0; via < 3; via++ {
			got := mustDo(t, "GET", urls[via]+"/v1/tenants/"+tenant+"/estimators/x/snapshot", nil, http.StatusOK)
			if !bytes.Equal(got, want) {
				t.Errorf("tenant %q via node %d: merged snapshot differs from the single-node build", tenant, via)
			}
		}
	}

	// Cluster tenant info aggregates usage across all shards and nodes.
	var info tenantInfoResponse
	if err := json.Unmarshal(mustDo(t, "GET", urls[2]+"/v1/tenants/acme", nil, http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	if info.UsedWords <= 0 || len(info.Estimators) != 1 || info.Estimators[0].Name != "acme/x" {
		t.Fatalf("cluster tenant info: %+v", info)
	}
}

// TestClusterTenantBudget413 pins router-side budget enforcement: the
// cost of a cluster create is partitions x per-shard words, the 413
// carries the cluster-wide accounting, and one tenant hitting its budget
// leaves another tenant's creates untouched.
func TestClusterTenantBudget413(t *testing.T) {
	const dom = 1 << 10
	_, urls := startCluster(t, 3, false)
	putTenantURL(t, urls[0], "capped", TenantConfig{})
	putTenantURL(t, urls[0], "free", TenantConfig{})

	mkBody := func(name string) []byte {
		body, _ := json.Marshal(createRequest{Name: name, Kind: "join",
			Config: configRequest{Dims: 2, DomainSize: dom, Seed: 1, Instances: 16, Groups: 4}})
		return body
	}
	mustDo(t, "POST", urls[0]+"/v1/tenants/capped/estimators", mkBody("a"), http.StatusCreated)
	var info tenantInfoResponse
	if err := json.Unmarshal(mustDo(t, "GET", urls[0]+"/v1/tenants/capped", nil, http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	used := info.UsedWords
	if used <= 0 {
		t.Fatalf("cluster usage after one create: %d", used)
	}

	// Budget = current usage: the identical second create must be rejected
	// with the exact partitions x words request cost, from any node.
	putTenantURL(t, urls[0], "capped", TenantConfig{MemoryBudgetWords: used})
	resp, data := httpDo(t, "POST", urls[1]+"/v1/tenants/capped/estimators", mkBody("b"), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget cluster create: status %d: %s", resp.StatusCode, data)
	}
	var rej struct {
		Budget budgetBreakdown `json:"budget"`
	}
	if err := json.Unmarshal(data, &rej); err != nil {
		t.Fatalf("413 body: %v: %s", err, data)
	}
	if rej.Budget.UsedWords != used || rej.Budget.RequestedWords != used || rej.Budget.BudgetWords != used {
		t.Fatalf("cluster 413 accounting %+v, want used=requested=budget=%d", rej.Budget, used)
	}
	// No shard of the rejected estimator may exist anywhere.
	resp, _ = httpDo(t, "GET", urls[2]+"/v1/tenants/capped/estimators/b", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected create left shards behind: %d", resp.StatusCode)
	}

	// The other tenant is not affected by capped's exhaustion.
	mustDo(t, "POST", urls[2]+"/v1/tenants/free/estimators", mkBody("b"), http.StatusCreated)
}

// TestClusterReadCacheRevalidation pins the router read cache: a repeat
// gather on a quiet estimator is a hit (all partitions revalidate 304),
// a write invalidates exactly the affected partitions and the next
// gather is a miss that still serves the updated, exact answer.
func TestClusterReadCacheRevalidation(t *testing.T) {
	const dom = 1 << 10
	_, urls := startCluster(t, 3, false)
	createFour(t, urls[0], dom)

	estimate := func() estimateResponse {
		data := mustDo(t, "GET", urls[0]+"/v1/estimators/j/estimate?left=0,1023&right=0,1023", nil, http.StatusOK)
		var er estimateResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatal(err)
		}
		return er
	}

	estimate() // first gather populates the cache (miss)
	misses0 := metricValue(t, urls[0], "spatialserve_cluster_readcache_events_total", `outcome="miss"`)
	hits0 := metricValue(t, urls[0], "spatialserve_cluster_readcache_events_total", `outcome="hit"`)
	if misses0 < 1 {
		t.Fatalf("first gather recorded no miss (misses=%v)", misses0)
	}

	before := estimate() // repeat: every partition answers 304
	if hits := metricValue(t, urls[0], "spatialserve_cluster_readcache_events_total", `outcome="hit"`); hits < hits0+1 {
		t.Fatalf("repeat gather not a cache hit: hits %v -> %v", hits0, hits)
	}

	// A write changes at least one partition's ETag: the next gather must
	// re-merge (miss) and reflect the new state exactly.
	body, _ := json.Marshal(updateRequest{Side: "left", Rects: [][][2]uint64{{{1, 100}, {1, 100}}}})
	mustDo(t, "POST", urls[1]+"/v1/estimators/j/update", body, http.StatusOK)
	body, _ = json.Marshal(updateRequest{Side: "right", Rects: [][][2]uint64{{{2, 99}, {2, 99}}}})
	mustDo(t, "POST", urls[1]+"/v1/estimators/j/update", body, http.StatusOK)

	after := estimate()
	if misses := metricValue(t, urls[0], "spatialserve_cluster_readcache_events_total", `outcome="miss"`); misses < misses0+1 {
		t.Fatalf("post-write gather served from cache: misses %v -> %v", misses0, misses)
	}
	if after.Value == before.Value && after.Mean == before.Mean {
		t.Fatal("post-write estimate identical to the cached pre-write answer")
	}

	// Deleting the estimator drops the cache entry; the next read is 404,
	// not a stale merged answer.
	mustDo(t, "DELETE", urls[0]+"/v1/estimators/j", nil, http.StatusOK)
	resp, _ := httpDo(t, "GET", urls[0]+"/v1/estimators/j/estimate?left=0,1023&right=0,1023", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted estimator still answers: %d", resp.StatusCode)
	}
}

// TestClusterTenantBroadcastAndDelete pins the config-broadcast
// lifecycle: every node learns a tenant synchronously on PUT, and a
// cluster DELETE removes it everywhere (idempotently).
func TestClusterTenantBroadcastAndDelete(t *testing.T) {
	srvs, urls := startCluster(t, 3, false)
	cfg := TenantConfig{RateQPS: 100, RateBurst: 5}
	putTenantURL(t, urls[2], "acme", cfg)
	for i, s := range srvs {
		ts := s.tenants.get("acme")
		if ts == nil || ts.cfg != cfg {
			t.Fatalf("node %d missing broadcast tenant config: %+v", i, ts)
		}
	}
	mustDo(t, "DELETE", urls[1]+"/v1/tenants/acme", nil, http.StatusOK)
	for i, s := range srvs {
		if s.tenants.get("acme") != nil {
			t.Fatalf("node %d still knows the deleted tenant", i)
		}
	}
	resp, _ := httpDo(t, "DELETE", urls[0]+"/v1/tenants/acme", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", resp.StatusCode)
	}
}

// TestClusterTenantEstimatorList: GET /v1/tenants/acme/estimators through
// every node of a 3-node cluster lists each of acme's estimators once,
// by its base name without the tenant prefix, and none of another
// tenant's; with a node unreachable the listing is refused (502), never
// silently short.
func TestClusterTenantEstimatorList(t *testing.T) {
	srvs, urls := startCluster(t, 3, false)
	putTenantURL(t, urls[0], "acme", TenantConfig{})
	const dom = 1 << 10
	for i, c := range []createRequest{
		{Name: "j", Kind: "join", Config: configRequest{Dims: 2, DomainSize: dom, Seed: 1, Instances: 64, Groups: 4}},
		{Name: "r", Kind: "range", Config: configRequest{Dims: 1, DomainSize: dom, Seed: 2, Instances: 64, Groups: 4}},
	} {
		mustDo(t, "POST", urls[i]+"/v1/tenants/acme/estimators", mustJSON(t, c), http.StatusCreated)
	}
	mustDo(t, "POST", urls[2]+"/v1/estimators", mustJSON(t, createRequest{Name: "x", Kind: "range",
		Config: configRequest{Dims: 1, DomainSize: dom, Seed: 3, Instances: 64, Groups: 4}}), http.StatusCreated)

	type listing struct {
		Tenant     string      `json:"tenant"`
		Estimators []listEntry `json:"estimators"`
	}
	want := listing{Tenant: "acme", Estimators: []listEntry{{Name: "j", Kind: "join"}, {Name: "r", Kind: "range"}}}
	for i, u := range urls {
		var got listing
		if err := json.Unmarshal(mustDo(t, "GET", u+"/v1/tenants/acme/estimators", nil, http.StatusOK), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("listing via node %d = %+v, want %+v", i, got, want)
		}
	}

	// Point the router's map at a closed port for n2: the node is down.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	m := srvs[0].cluster.map_().Clone()
	for i := range m.Nodes {
		if m.Nodes[i].ID == "n2" {
			m.Nodes[i].URL = dead.URL
		}
	}
	srvs[0].cluster.pmap.Store(m)
	resp, data := httpDo(t, "GET", urls[0]+"/v1/tenants/acme/estimators", nil, nil)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(data), "cluster list incomplete") {
		t.Fatalf("listing with a node down: status %d: %s (want 502, cluster list incomplete)", resp.StatusCode, data)
	}
}
