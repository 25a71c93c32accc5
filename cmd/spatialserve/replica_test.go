package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/ingestclient"
	"repro/internal/wal"
)

// Replica tests: a bootstrap ships the leader's whole image (snapshots,
// tenant configs, session marks), a persistent follower commits it as its
// own checkpoint, and every shipped record goes through the same WAL
// interpreter recovery uses - so a promoted replica, and the same replica
// restarted on its own data dir, is the leader's state exactly.

// nodeState is what a node's image holds, read straight from a server:
// every estimator's snapshot bytes, the session marks and the tenant
// configs.
type nodeState struct {
	snaps   map[string][]byte
	marks   []sessionMark
	tenants map[string]TenantConfig
}

func stateOf(t *testing.T, s *Server) nodeState {
	t.Helper()
	st := nodeState{snaps: map[string][]byte{}, marks: s.sessions.export(), tenants: s.tenants.configs()}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, est := range s.ests {
		data, err := est.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		st.snaps[name] = data
	}
	return st
}

// digests maps every estimator to its snapshot's SHA-256.
func (st nodeState) digests() map[string]string {
	out := make(map[string]string, len(st.snaps))
	for name, data := range st.snaps {
		sum := sha256.Sum256(data)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

func requireSameState(t *testing.T, when string, got, want nodeState) {
	t.Helper()
	if !reflect.DeepEqual(got.digests(), want.digests()) {
		t.Errorf("%s: snapshot digests\n got %v\nwant %v", when, got.digests(), want.digests())
	}
	if !reflect.DeepEqual(got.marks, want.marks) {
		t.Errorf("%s: session marks %+v, want %+v", when, got.marks, want.marks)
	}
	if !reflect.DeepEqual(got.tenants, want.tenants) {
		t.Errorf("%s: tenant configs %+v, want %+v", when, got.tenants, want.tenants)
	}
}

// waitReplicaCaughtUp waits until the follower's applied position is the
// leader's WAL frontier.
func waitReplicaCaughtUp(t *testing.T, leaderURL, followerURL string) {
	t.Helper()
	ring := func(url string) ringResponse {
		var rr ringResponse
		if err := json.Unmarshal(mustDo(t, "GET", url+"/admin/ring", nil, http.StatusOK), &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		rr := ring(followerURL)
		if rr.Replica == nil {
			t.Fatal("follower reports no replica status")
		}
		leader := ring(leaderURL).WalPos
		if rr.Replica.Pos == leader {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: at %s, leader at %s (lastError %q)", rr.Replica.Pos, leader, rr.Replica.LastError)
		}
	}
}

// startFollower boots a persistent follower of leaderURL on dir.
func startFollower(t *testing.T, dir, leaderURL string, poll time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	f, err := NewPersistentServer(PersistOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fh := httptest.NewServer(f)
	t.Cleanup(func() {
		fh.Close()
		f.Close()
	})
	if err := f.StartReplica(leaderURL, poll); err != nil {
		t.Fatal(err)
	}
	return f, fh
}

// restartOnOwnDir crashes a promoted node (no final checkpoint, so its
// recovery must come from what it committed and logged itself) and boots
// a new server on its data dir.
func restartOnOwnDir(t *testing.T, s *Server, dir string) (*Server, *httptest.Server) {
	t.Helper()
	if err := s.persist.close(true); err != nil {
		t.Fatal(err)
	}
	r, err := NewPersistentServer(PersistOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rh := httptest.NewServer(r)
	t.Cleanup(func() {
		rh.Close()
		r.Close()
	})
	return r, rh
}

// TestReplicaFollowAndPromote runs a leader and a WAL-shipped follower:
// the follower bootstraps from the leader's image, then every WAL op -
// create, delete, plain and keyed update, stream batch, merge, snapshot
// PUT, tenant PUT and DELETE, session drop - reaches it through the tail
// and the WAL interpreter. It rejects external writes, and on promotion
// serves estimators byte-identical to a loss-free replay and equal to
// the leader reopened on its own data dir in snapshots, marks and tenant
// configs - then accepts writes as an ordinary durable node.
func TestReplicaFollowAndPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process replication timing")
	}
	const dom = 1 << 12
	ldir := t.TempDir()
	leader, err := NewPersistentServer(PersistOptions{DataDir: ldir})
	if err != nil {
		t.Fatal(err)
	}
	lh := httptest.NewServer(leader)
	refs := newClusterRefs(t, dom)
	createFour(t, lh.URL, dom)

	rng := rand.New(rand.NewSource(55))
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			wr := randRect(rng, dom)
			rect := geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])
			body, _ := json.Marshal(updateRequest{Side: "left", Rects: [][][2]uint64{wr}})
			mustDo(t, "POST", lh.URL+"/v1/estimators/j/update", body, http.StatusOK)
			if err := refs.j.InsertLeft(rect); err != nil {
				t.Fatal(err)
			}
			ws := randRect(rng, dom)
			span := geo.Span1D(ws[0][0], ws[0][1])
			body, _ = json.Marshal(updateRequest{Rects: [][][2]uint64{wireRect(span)}})
			mustDo(t, "POST", lh.URL+"/v1/estimators/r/update", body, http.StatusOK)
			if err := refs.r.Insert(span); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(30) // pre-bootstrap history

	fdir := t.TempDir()
	follower, fh := startFollower(t, fdir, lh.URL, 20*time.Millisecond)

	ingest(30) // shipped via WAL tailing
	keyed := func(name, key string) {
		lo := rng.Uint64() % (dom - 2)
		body := mustJSON(t, updateRequest{Rects: [][][2]uint64{{{lo, lo + 1}}}})
		hdr := map[string]string{"Idempotency-Key": key, "Content-Type": "application/json"}
		if resp, data := httpDo(t, "POST", lh.URL+"/v1/estimators/"+name+"/update", body, hdr); resp.StatusCode != http.StatusOK {
			t.Fatalf("keyed update of %s: status %d: %s", name, resp.StatusCode, data)
		}
	}
	for _, name := range []string{"x", "k"} {
		mustDo(t, "POST", lh.URL+"/v1/estimators", mustJSON(t, createRequest{Name: name, Kind: "range",
			Config: configRequest{Dims: 1, DomainSize: dom, Seed: 9, Instances: 16, Groups: 4}}), http.StatusCreated)
	}
	keyed("x", "kx")
	keyed("k", "k-1")
	keyed("k", "k-2")
	mustDo(t, "DELETE", lh.URL+"/v1/estimators/x", nil, http.StatusOK)
	c, err := ingestclient.Dial(ingestclient.Options{BaseURL: lh.URL, Estimator: "j", Session: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	var history []spatial.UpdateRecord
	recs := streamBatch(rng, 8, &history)
	applyRef(t, refs.j, recs)
	if err := c.Send(recs); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	snap := mustDo(t, "GET", lh.URL+"/v1/estimators/k/snapshot", nil, http.StatusOK)
	mustDo(t, "POST", lh.URL+"/v1/estimators/k/merge", snap, http.StatusOK)
	mustDo(t, "PUT", lh.URL+"/v1/estimators/p/snapshot", snap, http.StatusOK)
	mustDo(t, "PUT", lh.URL+"/v1/tenants/acme", mustJSON(t, TenantConfig{MemoryBudgetWords: 1 << 22}), http.StatusOK)
	mustDo(t, "PUT", lh.URL+"/v1/tenants/gone", mustJSON(t, TenantConfig{RateQPS: 10}), http.StatusOK)
	mustDo(t, "DELETE", lh.URL+"/v1/tenants/gone", nil, http.StatusOK)
	mustDo(t, "DELETE", lh.URL+"/admin/sessions?session=idem:k-2", nil, http.StatusOK)
	waitReplicaCaughtUp(t, lh.URL, fh.URL)

	// Every op reached the follower through the tail: its own log after
	// the checkpoint its bootstrap committed holds each of them.
	m, err := follower.persist.readManifest()
	if err != nil || m == nil {
		t.Fatalf("follower manifest: %v", err)
	}
	ops := map[byte]bool{}
	if _, err := follower.persist.w.ReadFrom(m.cut(), 0, func(_ wal.Pos, payload []byte) error {
		ops[payload[0]] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for op := walOpCreate; op <= walOpSessionDrop; op++ {
		if !ops[op] {
			t.Errorf("no op %d record was shipped after the bootstrap", op)
		}
	}

	// Read-only while replicating.
	body, _ := json.Marshal(updateRequest{Side: "left", Rects: [][][2]uint64{randRect(rng, dom)}})
	resp, _ := httpDo(t, "POST", fh.URL+"/v1/estimators/j/update", body, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("follower accepted an external write: %d", resp.StatusCode)
	}

	// Leader dies; promote the follower and verify bit-identical state.
	lh.Close()
	leader.Close()
	mustDo(t, "POST", fh.URL+"/admin/promote", nil, http.StatusOK)
	for name, ref := range map[string]interface{ Marshal() ([]byte, error) }{
		"j": refs.j, "r": refs.r, "e": refs.e, "c": refs.c,
	} {
		want, err := ref.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got := mustDo(t, "GET", fh.URL+"/v1/estimators/"+name+"/snapshot", nil, http.StatusOK)
		if !bytes.Equal(got, want) {
			t.Errorf("promoted follower: estimator %q differs from the loss-free replay", name)
		}
	}
	reopened, err := NewPersistentServer(PersistOptions{DataDir: ldir})
	if err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, reopened)
	reopened.Close()
	if len(want.marks) != 2 || len(want.tenants) != 1 || len(want.snaps) != 6 {
		t.Fatalf("reopened leader: %d marks, %d tenants, %d estimators; want 2, 1 and 6", len(want.marks), len(want.tenants), len(want.snaps))
	}
	requireSameState(t, "promoted follower vs the leader reopened", stateOf(t, follower), want)

	// The promoted node is an ordinary read-write durable server now.
	wr := randRect(rng, dom)
	body, _ = json.Marshal(updateRequest{Side: "left", Rects: [][][2]uint64{wr}})
	mustDo(t, "POST", fh.URL+"/v1/estimators/j/update", body, http.StatusOK)
	if err := refs.j.InsertLeft(geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])); err != nil {
		t.Fatal(err)
	}
	want2, err := refs.j.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got := mustDo(t, "GET", fh.URL+"/v1/estimators/j/snapshot", nil, http.StatusOK)
	if !bytes.Equal(got, want2) {
		t.Error("post-promotion write diverged from the reference")
	}
}

// TestReplicaBootstrapCarriesTenantsAndMarks: the leader's tenant config
// and dedup marks live only in its checkpoint when the follower
// bootstraps, and the promoted follower - and the same node restarted on
// its own data dir - must still know the tenant, dedup a retried keyed
// update and resume a stream at the leader's watermark.
func TestReplicaBootstrapCarriesTenantsAndMarks(t *testing.T) {
	checkGoroutineLeaks(t)
	leader, err := NewPersistentServer(PersistOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lh := httptest.NewServer(leader)
	t.Cleanup(func() {
		lh.Close()
		leader.Close()
	})
	acme := TenantConfig{MemoryBudgetWords: 1 << 22, RateQPS: 1000, RateBurst: 1000}
	mustDo(t, "PUT", lh.URL+"/v1/tenants/acme", mustJSON(t, acme), http.StatusOK)
	createStreamJoin(t, lh.URL)

	rng := rand.New(rand.NewSource(19))
	keyed := mustJSON(t, updateRequest{Side: "left", Rects: [][][2]uint64{randRect(rng, streamDom)}})
	hdr := map[string]string{"Idempotency-Key": "k-1", "Content-Type": "application/json"}
	if resp, data := httpDo(t, "POST", lh.URL+"/v1/estimators/j/update", keyed, hdr); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(data), `"applied":1`) {
		t.Fatalf("keyed update: status %d, body %s", resp.StatusCode, data)
	}
	c, err := ingestclient.Dial(ingestclient.Options{BaseURL: lh.URL, Estimator: "j", Session: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	var history []spatial.UpdateRecord
	if err := c.Send(streamBatch(rng, 8, &history)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	conn, _, ha := dialStreamRaw(t, lh.URL, "j", "w1")
	conn.Close()
	mustDo(t, "POST", lh.URL+"/admin/checkpoint", nil, http.StatusOK)
	want := stateOf(t, leader)
	if len(want.marks) != 2 || ha.Watermark != 1 {
		t.Fatalf("leader marks %+v, stream watermark %d: want the keyed and the stream mark at 1", want.marks, ha.Watermark)
	}

	dir := t.TempDir()
	follower, fh := startFollower(t, dir, lh.URL, 20*time.Millisecond)
	lh.Close()
	leader.Close()
	mustDo(t, "POST", fh.URL+"/admin/promote", nil, http.StatusOK)

	check := func(s *Server, base, when string) {
		t.Helper()
		requireSameState(t, when, stateOf(t, s), want)
		var ti tenantInfoResponse
		resp, data := httpDo(t, "GET", base+"/v1/tenants/acme", nil, nil)
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &ti) != nil || ti.Config != acme {
			t.Errorf("%s: GET tenant acme: status %d, body %s (want config %+v)", when, resp.StatusCode, data, acme)
		}
		var sl sessionListResponse
		if err := json.Unmarshal(mustDo(t, "GET", base+"/admin/sessions", nil, http.StatusOK), &sl); err != nil || sl.Count != len(want.marks) {
			t.Errorf("%s: /admin/sessions lists %d marks (%v), want %d", when, sl.Count, err, len(want.marks))
		}
		before := mustDo(t, "GET", base+"/v1/estimators/j/snapshot", nil, http.StatusOK)
		resp, data = httpDo(t, "POST", base+"/v1/estimators/j/update", keyed, hdr)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"deduped":true`) {
			t.Errorf("%s: retried keyed update: status %d, body %s (want deduped)", when, resp.StatusCode, data)
		}
		if after := mustDo(t, "GET", base+"/v1/estimators/j/snapshot", nil, http.StatusOK); !bytes.Equal(after, before) {
			t.Errorf("%s: the retried keyed update changed the estimator", when)
		}
		conn, _, got := dialStreamRaw(t, base, "j", "w1")
		conn.Close()
		if got.Watermark != ha.Watermark {
			t.Errorf("%s: resumed stream got watermark %d, the leader gave %d", when, got.Watermark, ha.Watermark)
		}
	}
	check(follower, fh.URL, "promoted follower")
	restarted, rh := restartOnOwnDir(t, follower, dir)
	check(restarted, rh.URL, "promoted follower restarted on its own data dir")
}

// TestReplicaBootstrapGoldenDataDir bootstraps a persistent follower from
// a leader recovered from the golden data dir: the promoted follower, and
// the same node restarted on its own dir, must hold exactly what
// TestGoldenDataDirReplays pins for the leader.
func TestReplicaBootstrapGoldenDataDir(t *testing.T) {
	checkGoroutineLeaks(t)
	ldir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(ldir, os.DirFS(goldenDataDir)); err != nil {
		t.Fatal(err)
	}
	leader, err := NewPersistentServer(PersistOptions{DataDir: ldir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	lh := httptest.NewServer(leader)
	t.Cleanup(func() {
		lh.Close()
		leader.Close()
	})
	dir := t.TempDir()
	follower, fh := startFollower(t, dir, lh.URL, 20*time.Millisecond)
	mustDo(t, "POST", fh.URL+"/admin/promote", nil, http.StatusOK)

	check := func(s *Server, when string) {
		t.Helper()
		got := stateOf(t, s)
		if !reflect.DeepEqual(got.digests(), goldenDigests) {
			t.Errorf("%s: snapshot digests\n got %v\nwant %v", when, got.digests(), goldenDigests)
		}
		if !reflect.DeepEqual(got.marks, goldenMarks) {
			t.Errorf("%s: session marks %+v, want %+v", when, got.marks, goldenMarks)
		}
		if !reflect.DeepEqual(got.tenants, goldenTenants) {
			t.Errorf("%s: tenant configs %+v, want %+v", when, got.tenants, goldenTenants)
		}
	}
	check(follower, "promoted follower")
	restarted, _ := restartOnOwnDir(t, follower, dir)
	check(restarted, "promoted follower restarted on its own data dir")
}

// TestReplicaRebootstrapUnderReads forces the 410 path: the leader
// checkpoints past a follower whose tail fetches are held back, so the
// follower's position names a dropped segment and it re-bootstraps -
// swapping its registry, tenants and marks - while readers keep hitting
// it. Every read must succeed, and the follower must end caught up and
// equal to the leader.
func TestReplicaRebootstrapUnderReads(t *testing.T) {
	checkGoroutineLeaks(t)
	leader, err := NewPersistentServer(PersistOptions{DataDir: t.TempDir(), SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var held atomic.Bool
	var bootstraps atomic.Int32
	lh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/admin/bootstrap":
			bootstraps.Add(1)
		case r.URL.Path == "/admin/wal" && held.Load():
			http.Error(w, "tail held back", http.StatusServiceUnavailable)
			return
		}
		leader.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		lh.Close()
		leader.Close()
	})
	mustDo(t, "PUT", lh.URL+"/v1/tenants/acme", mustJSON(t, TenantConfig{MemoryBudgetWords: 1 << 22}), http.StatusOK)
	createStreamJoin(t, lh.URL)
	rng := rand.New(rand.NewSource(23))
	write := func(n int) {
		for i := 0; i < n; i++ {
			body := mustJSON(t, updateRequest{Side: "left", Rects: [][][2]uint64{randRect(rng, streamDom)}})
			hdr := map[string]string{"Content-Type": "application/json"}
			if i%10 == 0 {
				hdr["Idempotency-Key"] = fmt.Sprintf("k-%d", rng.Int63())
			}
			if resp, data := httpDo(t, "POST", lh.URL+"/v1/estimators/j/update", body, hdr); resp.StatusCode != http.StatusOK {
				t.Fatalf("update: status %d: %s", resp.StatusCode, data)
			}
		}
	}
	write(20)
	follower, fh := startFollower(t, t.TempDir(), lh.URL, 5*time.Millisecond)
	waitReplicaCaughtUp(t, lh.URL, fh.URL)

	held.Store(true)
	pos := follower.replica.status().Pos
	write(150)
	mustDo(t, "POST", lh.URL+"/admin/checkpoint", nil, http.StatusOK)
	rec := httptest.NewRecorder()
	leader.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/wal?from="+pos, nil))
	if rec.Code != http.StatusGone {
		t.Fatalf("the leader still serves the follower's position %s: status %d", pos, rec.Code)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for _, path := range []string{"/v1/estimators/j/snapshot", "/v1/estimators/j/estimate", "/admin/sessions", "/v1/tenants/acme"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fh.URL + path)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s during the re-bootstrap: status %d", path, resp.StatusCode)
					return
				}
			}
		}()
	}
	held.Store(false)
	waitReplicaCaughtUp(t, lh.URL, fh.URL)
	write(10) // the tail resumes from the new image
	waitReplicaCaughtUp(t, lh.URL, fh.URL)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := bootstraps.Load(); n != 2 {
		t.Fatalf("leader served %d bootstraps, want 2 (the start and the re-bootstrap)", n)
	}
	requireSameState(t, "re-bootstrapped follower", stateOf(t, follower), stateOf(t, leader))
}

// TestReplicaRebootstrapsInsideRewrittenRecord: a follower holds every
// record of its leader's log. The leader stops abruptly, its last segment
// loses the tail of a record the follower already applied (the unsynced
// tail a host crash drops), and the leader, restarted on the same data
// dir and URL, logs records of other lengths past the follower's
// position. That position now lies inside a record of the rewritten log:
// the leader must answer 410, not 500, so the follower re-bootstraps and
// ends with the leader's state instead of retrying the position for good.
func TestReplicaRebootstrapsInsideRewrittenRecord(t *testing.T) {
	const dom = 1 << 12
	ldir := t.TempDir()
	leader, err := NewPersistentServer(PersistOptions{DataDir: ldir})
	if err != nil {
		t.Fatal(err)
	}
	lh := httptest.NewServer(leader)
	addr := lh.Listener.Addr().String()
	mustDo(t, "POST", lh.URL+"/v1/estimators", mustJSON(t, createRequest{Name: "r", Kind: "range",
		Config: configRequest{Dims: 1, DomainSize: dom, Seed: 9, Instances: 16, Groups: 4}}), http.StatusCreated)
	rng := rand.New(rand.NewSource(71))
	// update logs one record of n rectangles through h.
	update := func(h http.Handler, n int) {
		t.Helper()
		rects := make([][][2]uint64, n)
		for i := range rects {
			lo := rng.Uint64() % (dom - 2)
			rects[i] = [][2]uint64{{lo, lo + 1}}
		}
		req := httptest.NewRequest("POST", "/v1/estimators/r/update", bytes.NewReader(mustJSON(t, updateRequest{Rects: rects})))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("update: status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 5; i++ {
		update(leader, 1)
	}
	follower, fh := startFollower(t, t.TempDir(), lh.URL, 20*time.Millisecond)
	for i := 0; i < 5; i++ {
		update(leader, 1) // shipped through the tail
	}
	waitReplicaCaughtUp(t, lh.URL, fh.URL)
	held := leader.persist.w.Pos()

	// Abrupt stop, then a torn tail inside the last record.
	lh.Close()
	if err := leader.persist.close(true); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(ldir, walSubdir, "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("leader segments: %v, %v", segs, err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	// The restarted leader logs longer records before it listens again,
	// so the follower's next poll meets the rewritten log.
	leader2, err := NewPersistentServer(PersistOptions{DataDir: ldir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		update(leader2, 3)
	}
	boundary := false
	if _, err := leader2.persist.w.ReadFrom(wal.Pos{}, 0, func(pos wal.Pos, _ []byte) error {
		boundary = boundary || pos == held
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if boundary || !held.Less(leader2.persist.w.Pos()) {
		t.Fatalf("setup: follower position %v is a record boundary of, or past, the rewritten log ending at %v", held, leader2.persist.w.Pos())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	lh2 := &httptest.Server{Listener: ln, Config: &http.Server{Handler: leader2}}
	lh2.Start()
	t.Cleanup(func() {
		lh2.Close()
		leader2.Close()
	})

	waitReplicaCaughtUp(t, lh2.URL, fh.URL)
	requireSameState(t, "follower after the leader rewrote its tail", stateOf(t, follower), stateOf(t, leader2))
}

// bootstrapSeeds returns a valid bootstrap body and the same image in
// the older u32 count | (uvarint name | u64 length | SPE1)* layout.
func bootstrapSeeds(tb testing.TB) (valid, old []byte) {
	tb.Helper()
	est, err := buildServable("range", configRequest{Dims: 1, DomainSize: 1 << 10, Seed: 3, Instances: 16, Groups: 4})
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := est.snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	img := &image{m: manifest{Version: manifestVersion, WALSegment: 2, WALOffset: 77,
		Estimators: []manifestEntry{{Name: "r"}, {Name: "acme/e"}},
		Tenants:    map[string]TenantConfig{"acme": {MemoryBudgetWords: 1 << 20, RateQPS: 500, MaxInflight: 16}},
		Sessions:   []sessionMark{{Session: "idem:k1", Estimator: "r", Seq: 1}}},
		snaps: [][]byte{snap, {}}}
	var buf bytes.Buffer
	if err := img.encode(&buf); err != nil {
		tb.Fatal(err)
	}
	old = binary.LittleEndian.AppendUint32(nil, 1)
	old = appendName(old, "r")
	old = binary.LittleEndian.AppendUint64(old, uint64(len(snap)))
	return buf.Bytes(), append(old, snap...)
}

// FuzzBootstrapBody: the bootstrap decoder reads a peer's bytes. No input
// may panic it, and every body it accepts must re-encode to itself; a
// body in the older layout, a truncated one and one with an overlong
// length are refused.
func FuzzBootstrapBody(f *testing.F) {
	valid, old := bootstrapSeeds(f)
	if _, err := decodeImage(valid); err != nil {
		f.Fatalf("a valid bootstrap body was refused: %v", err)
	}
	overlong := append(valid[:len(valid)-1:len(valid)-1], 0x80, 0x00) // the empty snapshot's length, in two bytes
	for name, body := range map[string][]byte{"older layout": old, "truncated": valid[:len(valid)-2], "overlong length": overlong} {
		if _, err := decodeImage(body); err == nil {
			f.Fatalf("a bootstrap body in the %s was accepted", name)
		}
	}
	f.Add(valid)
	f.Add(old)
	f.Add(overlong)
	f.Fuzz(func(t *testing.T, body []byte) {
		img, err := decodeImage(body)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := img.encode(&buf); err != nil || !bytes.Equal(buf.Bytes(), body) {
			t.Fatalf("an accepted body does not re-encode to itself (%v)", err)
		}
	})
}

// FuzzWalFrames: a move target decodes the frame body a peer pushes
// (handleMove) with the decoder followers use for /admin/wal. No input may
// panic it, and every body it accepts must re-encode to itself through
// the shared encoder; a truncated header and an overlong length are
// refused.
func FuzzWalFrames(f *testing.F) {
	s := openPersistent(f, f.TempDir())
	defer s.Close()
	createJoin(f, s, "j", 1<<10)
	mustStatus(f, do(f, s, "POST", "/v1/estimators/j/update", updateBody(f, "left", [][][2]uint64{{{1, 9}, {2, 7}}})), http.StatusOK)
	w := do(f, s, "GET", "/admin/wal?from=0:0", nil)
	mustStatus(f, w, http.StatusOK)
	real := w.Body.Bytes()
	if frames, err := parseWalFrames(real); err != nil || len(frames) != 2 {
		f.Fatalf("a real /admin/wal body decoded to %d frames (%v), want 2", len(frames), err)
	}
	overlong := binary.LittleEndian.AppendUint32(append([]byte(nil), real[:16]...), 1<<20)
	for name, body := range map[string][]byte{"truncated header": real[:19], "overlong length": overlong} {
		if _, err := parseWalFrames(body); err == nil {
			f.Fatalf("a body with a %s was accepted", name)
		}
	}
	f.Add(real)
	f.Add(real[:19])
	f.Add(overlong)
	f.Fuzz(func(t *testing.T, body []byte) {
		frames, err := parseWalFrames(body)
		if err != nil {
			return
		}
		var out []byte
		for _, fr := range frames {
			out = appendWalFrame(out, fr.pos, fr.payload)
		}
		if !bytes.Equal(out, body) {
			t.Fatal("an accepted body does not re-encode to itself")
		}
	})
}
