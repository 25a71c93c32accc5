package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/internal/cluster"
	"repro/internal/wal"
)

// Partition-move tests. A move is a one-shard follow - the shard's image,
// then the source's own WAL frames naming it, applied at the target
// through the replica interpreter - so whatever the source logs for the
// shard between the cut and the seal (a session drop, keyed and plain
// updates) reaches the target as the same records, and a registry
// operation on the shard aborts the move without moving ownership.

const moveDom = 1 << 12

// moveNode is one persistent cluster member behind a stable listener, so
// it can be restarted abruptly on its data dir; hook, when set, runs
// before each request the node serves.
type moveNode struct {
	id   string
	dir  string
	ht   *httptest.Server
	cur  atomic.Pointer[Server]
	hook atomic.Pointer[func(*http.Request)]
}

// startMoveCluster brings up a persistent two-node cluster and returns
// its nodes and the flag map they share.
func startMoveCluster(t *testing.T) ([]*moveNode, *cluster.Map) {
	t.Helper()
	checkGoroutineLeaks(t)
	nodes := make([]*moveNode, 2)
	m := &cluster.Map{Version: 1}
	for i := range nodes {
		n := &moveNode{id: fmt.Sprintf("n%d", i), dir: filepath.Join(t.TempDir(), "node")}
		n.ht = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := n.hook.Load(); h != nil {
				(*h)(r)
			}
			n.cur.Load().ServeHTTP(w, r)
		}))
		t.Cleanup(n.ht.Close)
		m.Nodes = append(m.Nodes, cluster.Node{ID: n.id, URL: n.ht.URL})
		nodes[i] = n
	}
	for _, n := range nodes {
		n.boot(t, m)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.cur.Load().Close()
		}
	})
	return nodes, m
}

// boot opens the node's server on its data dir and joins it to m.
func (n *moveNode) boot(t *testing.T, m *cluster.Map) {
	t.Helper()
	srv, err := NewPersistentServer(PersistOptions{DataDir: n.dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableCluster(ClusterOptions{SelfID: n.id, Map: m.Clone(), Partitions: testPartitions,
		Client: cluster.NewClient(10 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	srv.Tracer().SetSampleRate(1)
	n.cur.Store(srv)
}

// restart crashes the node - its WAL closed with no checkpoint - and
// recovers it from its data dir behind the same listener.
func (n *moveNode) restart(t *testing.T, m *cluster.Map) {
	t.Helper()
	s := n.cur.Load()
	s.closePeers()
	if err := s.persist.close(true); err != nil {
		t.Fatal(err)
	}
	n.boot(t, m)
}

// setHook installs fn (nil removes the hook).
func (n *moveNode) setHook(fn func(*http.Request)) {
	if fn == nil {
		n.hook.Store(nil)
		return
	}
	n.hook.Store(&fn)
}

// moveFixture is a two-node cluster holding join estimator "j", its
// loss-free reference, and a partition of "j" owned by the source node.
type moveFixture struct {
	t        *testing.T
	nodes    []*moveNode
	m        *cluster.Map
	src, dst *moveNode
	shard    string
	part     int
	rng      *rand.Rand

	mu  sync.Mutex
	ref *spatial.JoinEstimator
}

func newMoveFixture(t *testing.T) *moveFixture {
	t.Helper()
	nodes, m := startMoveCluster(t)
	f := &moveFixture{t: t, nodes: nodes, m: m, src: nodes[0], dst: nodes[1], part: -1, rng: rand.New(rand.NewSource(31))}
	mustDo(t, "POST", f.src.ht.URL+"/v1/estimators", mustJSON(t, createRequest{Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: moveDom, Seed: 1, Instances: 64, Groups: 4}}), http.StatusCreated)
	var err error
	if f.ref, err = spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: moveDom, Seed: 1,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < testPartitions && f.part < 0; p++ {
		if owner, _ := m.Owner(cluster.ShardName("j", p)); owner.ID == f.src.id {
			f.part = p
		}
	}
	if f.part < 0 {
		t.Fatal("the source node owns no partition of j")
	}
	f.shard = cluster.ShardName("j", f.part)
	return f
}

// update sends one update of 32 left rects - enough to reach every
// partition - through node n, keyed when key is set, mirrors it into the
// reference once acked, and returns its body.
func (f *moveFixture) update(n *moveNode, key string) []byte {
	f.t.Helper()
	f.mu.Lock()
	rects := make([][][2]uint64, 32)
	for i := range rects {
		rects[i] = randRect(f.rng, moveDom)
	}
	f.mu.Unlock()
	var hdr map[string]string
	if key != "" {
		hdr = map[string]string{"Idempotency-Key": key}
	}
	body := updateBody(f.t, "left", rects)
	resp, data := httpDo(f.t, "POST", n.ht.URL+"/v1/estimators/j/update", body, hdr)
	if resp.StatusCode != http.StatusOK {
		f.t.Errorf("update via %s (key %q): status %d: %s", n.id, key, resp.StatusCode, data)
		return body
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range rects {
		if err := f.ref.InsertLeft(geo.Rect(r[0][0], r[0][1], r[1][0], r[1][1])); err != nil {
			f.t.Fatal(err)
		}
	}
	return body
}

// marks returns the (session, seq) pairs node n holds for the shard.
func (f *moveFixture) marks(n *moveNode) []string {
	f.t.Helper()
	var resp sessionListResponse
	if err := json.Unmarshal(mustDo(f.t, "GET", n.ht.URL+"/admin/sessions?estimator="+url.QueryEscape(f.shard), nil, http.StatusOK), &resp); err != nil {
		f.t.Fatal(err)
	}
	out := make([]string, 0, len(resp.Sessions))
	for _, s := range resp.Sessions {
		out = append(out, fmt.Sprintf("%s@%d", s.Session, s.Seq))
	}
	sort.Strings(out)
	return out
}

// owner returns the shard's owner in node n's current map.
func (f *moveFixture) owner(n *moveNode) string {
	o, _ := n.cur.Load().cluster.map_().Owner(f.shard)
	return o.ID
}

// requireExact fails unless every node serves the merged snapshot of the
// loss-free reference.
func (f *moveFixture) requireExact(when string) {
	f.t.Helper()
	f.mu.Lock()
	want, err := f.ref.Marshal()
	f.mu.Unlock()
	if err != nil {
		f.t.Fatal(err)
	}
	for _, n := range f.nodes {
		if got := mustDo(f.t, "GET", n.ht.URL+"/v1/estimators/j/snapshot", nil, http.StatusOK); !bytes.Equal(got, want) {
			f.t.Fatalf("%s: the merged snapshot via %s differs from the loss-free reference", when, n.id)
		}
	}
}

// move asks the source to move the shard to the target, under trace
// traceID, and returns the status and body.
func (f *moveFixture) move(traceID string) (int, []byte) {
	f.t.Helper()
	rb := mustJSON(f.t, rebalanceRequest{Name: "j", Partition: f.part, Target: f.dst.id})
	resp, data := httpDo(f.t, "POST", f.src.ht.URL+"/admin/rebalance", rb, tpHeader(traceID))
	return resp.StatusCode, data
}

// isMoveChunk reports whether r is the target's first write of a move: an
// internal non-GET call other than the map push.
func isMoveChunk(r *http.Request) bool {
	return isInternal(r) && r.Method != http.MethodGet && r.URL.Path != "/admin/ring"
}

// TestClusterMoveShipsSessionDrop: a session drop the source logs between
// the cut and the seal (an operator's DELETE /admin/sessions landing mid
// move) ships to the target like any other frame of the shard, as do the
// keyed and plain updates logged beside it. The move answers 200, the new
// owner's marks for the shard are the source's marks at the seal, its
// state equals the loss-free reference - also after an abrupt restart of
// the target on its data dir - and the whole move is one trace, the
// target's WAL appends under rebalance.handoff.
func TestClusterMoveShipsSessionDrop(t *testing.T) {
	f := newMoveFixture(t)
	f.update(f.src, "k1")
	sent := map[string][]byte{"k2": f.update(f.dst, "k2")}
	f.update(f.src, "")

	if got := strings.Join(f.marks(f.src), " "); got != "idem:k1@1 idem:k2@1" {
		t.Fatalf("source marks before the move = %q, want k1 and k2", got)
	}
	var injected, sealed atomic.Bool
	var mu sync.Mutex // guards sent and sealMarks, written by the hook
	var sealMarks []string
	f.dst.setHook(func(r *http.Request) {
		switch {
		case isMoveChunk(r) && injected.CompareAndSwap(false, true):
			// Between the cut and the seal: drop k1's mark of the shard on
			// the source, and log more of the shard's writes there.
			dropURL := f.src.ht.URL + "/admin/sessions?session=idem:k1&estimator=" + url.QueryEscape(f.shard)
			var dr map[string]int
			if err := json.Unmarshal(mustDo(t, "DELETE", dropURL, nil, http.StatusOK), &dr); err != nil || dr["dropped"] != 1 {
				t.Errorf("dropping k1's mark on the source: %v (err %v)", dr, err)
			}
			k3 := f.update(f.src, "k3")
			f.update(f.src, "")
			mu.Lock()
			sent["k3"] = k3
			mu.Unlock()
		case r.URL.Path == "/admin/ring" && r.Method == http.MethodPost && injected.Load() && sealed.CompareAndSwap(false, true):
			// The seal's map push: the source holds its exclusive gate, so
			// its marks are final.
			m := f.marks(f.src)
			mu.Lock()
			sealMarks = m
			mu.Unlock()
		}
	})
	tid := "6d6f76656d6f76656d6f76656d6f7665"
	status, body := f.move(tid)
	f.dst.setHook(nil)
	if status != http.StatusOK {
		t.Fatalf("move with a session drop mid-move: status %d: %s", status, body)
	}
	if !injected.Load() || !sealed.Load() {
		t.Fatalf("the hook never ran between the cut and the seal (injected %v, sealed %v)", injected.Load(), sealed.Load())
	}
	mu.Lock()
	want := sealMarks
	mu.Unlock()
	if got := strings.Join(want, " "); got != "idem:k2@1 idem:k3@1" {
		t.Fatalf("source marks at the seal = %q, want k2 and k3 only", got)
	}
	if got := f.marks(f.dst); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("new owner's marks %v differ from the source's at the seal %v", got, want)
	}
	if f.owner(f.src) != f.dst.id || f.owner(f.dst) != f.dst.id {
		t.Fatalf("ownership did not move: source says %s, target says %s", f.owner(f.src), f.owner(f.dst))
	}
	f.requireExact("after the move")

	tr := getTrace(t, f.src.ht.URL, tid)
	if !hasChain(tr.Tree, "rebalance.handoff", "http admin", "wal.append") {
		t.Errorf("move trace has no target wal.append under rebalance.handoff: %v", spanNames(tr))
	}
	if !hasChain(tr.Tree, "rebalance.handoff", "rebalance.seal", "http admin") {
		t.Errorf("move trace has no seal span over the target's calls: %v", spanNames(tr))
	}

	f.dst.restart(t, f.m)
	if got := f.marks(f.dst); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("after a crash restart the new owner's marks are %v, want %v", got, want)
	}
	f.requireExact("after the target's crash restart")
	// The moved marks still dedup: resends of k2 and k3 apply nothing,
	// through either router.
	mu.Lock()
	defer mu.Unlock()
	for _, key := range []string{"k2", "k3"} {
		for _, n := range f.nodes {
			var ur updateResponse
			resp, data := httpDo(t, "POST", n.ht.URL+"/v1/estimators/j/update", sent[key], map[string]string{"Idempotency-Key": key})
			if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &ur) != nil || !ur.Deduped || ur.Applied != 0 {
				t.Fatalf("resend of %s via %s: status %d: %s", key, n.id, resp.StatusCode, data)
			}
		}
	}
	f.requireExact("after the resends")
}

// TestClusterMoveAbortsOnRegistryOp: a merge into the shard (op 4) logged
// between the cut and the seal does not commute with the move, so the
// move aborts and ownership stays; a retry then moves the shard exactly.
func TestClusterMoveAbortsOnRegistryOp(t *testing.T) {
	f := newMoveFixture(t)
	f.update(f.src, "k1")
	f.update(f.src, "")
	usedWords := func() int64 {
		var info tenantInfoResponse
		if err := json.Unmarshal(mustDo(t, "GET", f.src.ht.URL+"/v1/tenants/default", nil, http.StatusOK), &info); err != nil {
			t.Fatal(err)
		}
		return info.UsedWords
	}
	used := usedWords()

	extra, err := spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: moveDom, Seed: 1,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r := randRect(f.rng, moveDom)
		if err := extra.InsertRight(geo.Rect(r[0][0], r[0][1], r[1][0], r[1][1])); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := extra.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var merged atomic.Bool
	f.dst.setHook(func(r *http.Request) {
		if isMoveChunk(r) && merged.CompareAndSwap(false, true) {
			mustDoWith(t, "POST", f.src.ht.URL+shardPath(f.shard, "/merge"), snap, map[string]string{headerInternal: "1"}, http.StatusOK)
			f.mu.Lock()
			defer f.mu.Unlock()
			if err := f.ref.Merge(extra); err != nil {
				t.Error(err)
			}
		}
	})
	status, body := f.move("6d6f76656d6f76656d6f76656d6f7601")
	f.dst.setHook(nil)
	if status != http.StatusInternalServerError || !bytes.Contains(body, []byte("op 4")) {
		t.Fatalf("move across a merge: status %d: %s; want 500 naming op 4", status, body)
	}
	for _, n := range f.nodes {
		if got := f.owner(n); got != f.src.id {
			t.Fatalf("aborted move changed ownership: %s says %s owns %s", n.id, got, f.shard)
		}
	}
	f.requireExact("after the aborted move")
	// The target's inert copy of the shard is not the tenant's usage.
	if got := usedWords(); got != used {
		t.Fatalf("tenant usage after the aborted move: %d words, want %d", got, used)
	}

	f.update(f.dst, "k2")
	if status, body := f.move("6d6f76656d6f76656d6f76656d6f7602"); status != http.StatusOK {
		t.Fatalf("retried move: status %d: %s", status, body)
	}
	if f.owner(f.src) != f.dst.id || f.owner(f.dst) != f.dst.id {
		t.Fatalf("retried move did not move ownership")
	}
	f.requireExact("after the retried move")
	if got := usedWords(); got != used {
		t.Fatalf("tenant usage after the retried move: %d words, want %d", got, used)
	}
}

// mustDoWith is mustDo with request headers.
func mustDoWith(t testing.TB, method, url string, body []byte, hdr map[string]string, want int) []byte {
	t.Helper()
	resp, data := httpDo(t, method, url, body, hdr)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, data)
	}
	return data
}

// TestClusterMoveRefusals: the move target refuses a chunk with a frame
// naming another estimator, a frame of an op no move ships, a call
// without the internal header, a call on an active replica and a call
// for a shard its map says it owns - each before applying anything, so
// its WAL does not move.
func TestClusterMoveRefusals(t *testing.T) {
	srvs, urls := startCluster(t, 2, true)
	mustDo(t, "POST", urls[0]+"/v1/estimators", mustJSON(t, createRequest{Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: moveDom, Seed: 1, Instances: 64, Groups: 4}}), http.StatusCreated)
	mustDo(t, "POST", urls[0]+"/v1/estimators/j/update", updateBody(t, "left", [][][2]uint64{{{1, 9}, {2, 7}}, {{40, 90}, {5, 60}}}), http.StatusOK)
	var shard, other string
	for p := 0; p < testPartitions; p++ {
		if owner, _ := srvs[0].cluster.map_().Owner(cluster.ShardName("j", p)); owner.ID == "n0" {
			shard = cluster.ShardName("j", p)
		} else {
			other = cluster.ShardName("j", p)
		}
	}
	if shard == "" || other == "" {
		t.Fatal("each node must own a partition of j")
	}
	est, _ := srvs[0].lookup(shard)
	img, err := srvs[0].moveImage(shard, est, wal.Pos{Seg: 1, Off: 16})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := est.snapshot()
	frame := func(op byte, name string, rest []byte) []byte {
		return appendWalFrame(nil, wal.Pos{Seg: 1, Off: 16}, append(appendName([]byte{op}, name), rest...))
	}

	leader := openPersistent(t, t.TempDir())
	defer leader.Close()
	lh := httptest.NewServer(leader)
	defer lh.Close()
	follower, fh := startFollower(t, t.TempDir(), lh.URL, 20*time.Millisecond)
	defer func() { fh.Close(); follower.Close() }()

	internal := map[string]string{headerInternal: "1"}
	moveURL := func(base, shard string) string { return base + "/admin/move?shard=" + url.QueryEscape(shard) }
	for _, c := range []struct {
		what string
		base string
		body []byte
		hdr  map[string]string
		want int
	}{
		{"a frame naming another estimator", urls[1], append(append([]byte(nil), img...), frame(walOpPut, other, snap)...), internal, http.StatusBadRequest},
		{"a frame with op 1", urls[1], append(append([]byte(nil), img...), frame(walOpCreate, shard, []byte(`{}`))...), internal, http.StatusBadRequest},
		{"a frame with op 4", urls[1], frame(walOpMerge, shard, snap), internal, http.StatusBadRequest},
		{"a torn frame", urls[1], img[:len(img)-1], internal, http.StatusBadRequest},
		{"a call without the internal header", urls[1], img, nil, http.StatusForbidden},
		{"a call on an active replica", fh.URL, img, internal, http.StatusConflict},
		{"a call for a shard the target owns", urls[0], img, internal, http.StatusConflict},
	} {
		pos := walPosOf(t, c.base)
		resp, data := httpDo(t, "POST", moveURL(c.base, shard), c.body, c.hdr)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.what, resp.StatusCode, c.want, data)
		}
		if after := walPosOf(t, c.base); after != pos {
			t.Errorf("%s: the WAL moved from %s to %s", c.what, pos, after)
		}
	}
	if _, ok := srvs[1].lookup(shard); ok {
		t.Fatalf("a refused chunk left %q on the target", shard)
	}
	// The same image, sent as a move sends it, applies.
	pos := walPosOf(t, urls[1])
	mustDoWith(t, "POST", moveURL(urls[1], shard), img, internal, http.StatusOK)
	if got, ok := srvs[1].lookup(shard); !ok {
		t.Fatal("a well-formed chunk did not apply")
	} else if b, _ := got.snapshot(); !bytes.Equal(b, snap) {
		t.Fatal("the applied image differs from the source's shard")
	}
	if walPosOf(t, urls[1]) == pos {
		t.Fatal("an applied chunk was not logged")
	}
}

// walPosOf returns a persistent node's WAL position from /admin/ring.
func walPosOf(t *testing.T, base string) string {
	t.Helper()
	var rr ringResponse
	if err := json.Unmarshal(mustDo(t, "GET", base+"/admin/ring", nil, http.StatusOK), &rr); err != nil {
		t.Fatal(err)
	}
	return rr.WalPos
}

// TestClusterFreezeMoveCarriesMarks: without a WAL a move ships the same
// image records inside its freeze-move, so the new owner holds the
// shard's dedup marks and a resend through another router applies
// nothing.
func TestClusterFreezeMoveCarriesMarks(t *testing.T) {
	srvs, urls := startCluster(t, 2, false)
	mustDo(t, "POST", urls[0]+"/v1/estimators", mustJSON(t, createRequest{Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: moveDom, Seed: 1, Instances: 64, Groups: 4}}), http.StatusCreated)
	rng := rand.New(rand.NewSource(8))
	rects := make([][][2]uint64, 32)
	for i := range rects {
		rects[i] = randRect(rng, moveDom)
	}
	body := updateBody(t, "left", rects)
	mustDoWith(t, "POST", urls[0]+"/v1/estimators/j/update", body, map[string]string{"Idempotency-Key": "k1"}, http.StatusOK)
	want := mustDo(t, "GET", urls[0]+"/v1/estimators/j/snapshot", nil, http.StatusOK)
	part := -1
	for p := 0; p < testPartitions && part < 0; p++ {
		if owner, _ := srvs[0].cluster.map_().Owner(cluster.ShardName("j", p)); owner.ID == "n0" {
			part = p
		}
	}
	shard := cluster.ShardName("j", part)
	if got := srvs[0].sessions.marksFor(shard); len(got) != 1 {
		t.Fatalf("source marks of %s = %v, want k1's", shard, got)
	}
	mustDo(t, "POST", urls[0]+"/admin/rebalance", mustJSON(t, rebalanceRequest{Name: "j", Partition: part, Target: "n1"}), http.StatusOK)
	if got := srvs[1].sessions.marksFor(shard); len(got) != 1 || got[0].Session != "idem:k1" || got[0].Seq != 1 {
		t.Fatalf("new owner's marks of %s = %v, want k1's", shard, got)
	}
	var ur updateResponse
	resp, data := httpDo(t, "POST", urls[1]+"/v1/estimators/j/update", body, map[string]string{"Idempotency-Key": "k1"})
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &ur) != nil || !ur.Deduped {
		t.Fatalf("resend after the freeze-move: status %d: %s", resp.StatusCode, data)
	}
	for _, u := range urls {
		if got := mustDo(t, "GET", u+"/v1/estimators/j/snapshot", nil, http.StatusOK); !bytes.Equal(got, want) {
			t.Fatalf("snapshot via %s changed across the freeze-move and the resend", u)
		}
	}
}
