package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/ingestclient"
	"repro/internal/cluster"
	"repro/internal/faultinject"
)

// Chaos soak: a 3-node persistent cluster under mixed ingest/query
// traffic while a seeded injector partitions links, fabricates 5xx,
// truncates and delays reads, poisons WAL writes, and kills/restarts
// nodes. The safety claim is checked the strongest way possible: once
// faults clear, the merged cluster snapshot must be BYTE-identical to a
// loss-free single-node replay of exactly the acknowledged updates - no
// acked record lost, no unacked record resurrected, nothing applied
// twice.
//
// Delivery discipline (why the acked-set bookkeeping is sound):
//   - Transport faults (refuse, fabricated 5xx, partitions) fail a
//     request WITHOUT forwarding it, so a failed mutation was definitely
//     not applied.
//   - Latency and truncation rules are restricted to GETs; a mutation is
//     never delayed past its deadline mid-flight or torn on the wire.
//     Grouped reads ride pooled peer connections and meet the same rules
//     there (faultinject.PeerFaults), matched as GETs.
//   - WAL poisoning uses KindWALWrite (fail before any byte lands), so a
//     never-acked record cannot be resurrected by crash replay.
//   - Node kills isolate the victim at the injector first, then drain,
//     then abruptly close the WAL - in-flight requests either finish
//     fully (acked and applied) or were refused before reaching it.
//
// The run is configured by SPATIAL_CHAOS ("seed=7,rounds=12,writers=4");
// on failure the injector's event log is written to SPATIAL_CHAOS_LOG
// (default: a file under the test temp dir) for the CI artifact.

const chaosDom = 1 << 12

// chaosNode is one cluster member whose Server can be killed and
// restarted behind a stable httptest listener.
type chaosNode struct {
	id  string
	dir string
	ht  *httptest.Server
	cur atomic.Pointer[Server]
	// downRule isolates the node at the injector while it is down.
	downRule string
}

// chaosHarness wires three persistent nodes and a test-traffic client
// through one seeded injector.
type chaosHarness struct {
	t      *testing.T
	in     *faultinject.Injector
	m      *cluster.Map
	nodes  []*chaosNode
	client *http.Client

	mu    sync.Mutex
	acked []ackedRec
}

// ackedRec is one acknowledged join update, replayed into the loss-free
// reference estimator at verification time. Sketch linearity makes the
// replay order irrelevant, so concurrent writers need no ordering.
type ackedRec struct {
	del  bool
	side string
	wr   [][2]uint64
}

func startChaos(t *testing.T, seed int64) *chaosHarness {
	t.Helper()
	checkGoroutineLeaks(t)
	h := &chaosHarness{t: t, in: faultinject.New(seed)}
	for i := 0; i < 3; i++ {
		n := &chaosNode{id: fmt.Sprintf("n%d", i), dir: filepath.Join(t.TempDir(), "node")}
		n.ht = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := n.cur.Load()
			if s == nil {
				panic(http.ErrAbortHandler) // crashed: the connection dies
			}
			s.ServeHTTP(w, r)
		}))
		t.Cleanup(n.ht.Close)
		u, err := url.Parse(n.ht.URL)
		if err != nil {
			t.Fatal(err)
		}
		h.in.NameHost(u.Host, n.id)
		h.nodes = append(h.nodes, n)
	}
	h.m = &cluster.Map{Version: 1}
	for _, n := range h.nodes {
		h.m.Nodes = append(h.m.Nodes, cluster.Node{ID: n.id, URL: n.ht.URL})
	}
	for _, n := range h.nodes {
		h.boot(n)
	}
	t.Cleanup(func() {
		for _, n := range h.nodes {
			if s := n.cur.Swap(nil); s != nil {
				s.Close()
			}
		}
	})
	h.client = &http.Client{Transport: h.in.Transport("client", nil), Timeout: 5 * time.Second}
	return h
}

// boot opens (or re-opens) the node's persistent Server on its data dir,
// with its WAL and outbound fan-out (HTTP on the production fan-out
// transport, and the calls on its peer connections) routed through the
// injector.
func (h *chaosHarness) boot(n *chaosNode) {
	h.t.Helper()
	srv, err := NewPersistentServer(PersistOptions{DataDir: n.dir, WALHooks: h.in.WALHooks(n.id)})
	if err != nil {
		h.t.Fatalf("boot %s: %v", n.id, err)
	}
	if err := srv.EnableCluster(ClusterOptions{
		SelfID:     n.id,
		Map:        h.m.Clone(),
		Partitions: testPartitions,
		Client: &cluster.Client{
			HTTP:    &http.Client{Transport: h.in.Transport(n.id, cluster.NewTransport())},
			Faults:  h.in.PeerFaults(n.id),
			Timeout: 2 * time.Second,
		},
		Health: cluster.NewHealth(cluster.HealthOptions{FailureThreshold: 3, OpenFor: 250 * time.Millisecond}),
	}); err != nil {
		h.t.Fatalf("boot %s: %v", n.id, err)
	}
	// Admission stays on for the whole soak so the gates are exercised
	// under faults (fan-out retries are internal and exempt).
	srv.EnableAdmission(AdmitOptions{MaxInflightReads: 128, MaxInflightWrites: 128})
	n.cur.Store(srv)
}

// kill crashes the node: isolate it at the injector, drain in-flight
// requests, close its peer connections as a crash closes its sockets,
// then abruptly close its WAL (no final checkpoint).
func (h *chaosHarness) kill(n *chaosNode) {
	h.t.Helper()
	n.downRule = h.in.Partition("*", n.id)
	time.Sleep(300 * time.Millisecond)
	if s := n.cur.Swap(nil); s != nil {
		s.closePeers()
		if err := s.persist.close(true); err != nil {
			h.t.Logf("abrupt close %s: %v (expected when its WAL was poisoned)", n.id, err)
		}
	}
}

// restart recovers the node from its data dir and reconnects it.
func (h *chaosHarness) restart(n *chaosNode) {
	h.t.Helper()
	h.boot(n)
	if n.downRule != "" {
		h.in.Remove(n.downRule)
		n.downRule = ""
	}
}

// postJ posts one single-rect join update via the given node and mirrors
// it into the acked log iff the cluster acknowledged it.
func (h *chaosHarness) postJ(via *chaosNode, rec ackedRec) bool {
	req := updateRequest{Side: rec.side, Rects: [][][2]uint64{rec.wr}}
	if rec.del {
		req.Op = "delete"
	}
	body, _ := json.Marshal(req)
	resp, err := h.client.Post(via.ht.URL+"/v1/estimators/j/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return false // refused, partitioned or dead: definitely not applied
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	h.mu.Lock()
	h.acked = append(h.acked, rec)
	h.mu.Unlock()
	return true
}

// burst runs the concurrent ingest workers for one round; every worker
// tolerates failures (faults are active) and records only acked updates.
// Workers occasionally delete a rect they previously got acked.
func (h *chaosHarness) burst(seed int64, writers, perWriter int) {
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(wi)))
			var mine []ackedRec
			for i := 0; i < perWriter; i++ {
				via := h.nodes[rng.Intn(len(h.nodes))]
				if len(mine) > 0 && i%5 == 4 {
					pick := rng.Intn(len(mine))
					del := mine[pick]
					del.del = true
					if h.postJ(via, del) {
						mine = append(mine[:pick], mine[pick+1:]...)
					}
					continue
				}
				rec := ackedRec{side: "left", wr: randRect(rng, chaosDom)}
				if rng.Intn(2) == 1 {
					rec.side = "right"
				}
				if h.postJ(via, rec) {
					mine = append(mine, rec)
				}
			}
		}(wi)
	}
	wg.Wait()
}

// refSnapshot replays the acked log into a fresh single-node reference
// estimator (same config as the cluster's "j") and marshals it.
func (h *chaosHarness) refSnapshot() []byte {
	h.t.Helper()
	ref, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: chaosDom, Seed: 1, Sizing: spatial.Sizing{Instances: 64, Groups: 4},
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, rec := range h.acked {
		r := geo.Rect(rec.wr[0][0], rec.wr[0][1], rec.wr[1][0], rec.wr[1][1])
		switch {
		case rec.del && rec.side == "left":
			err = ref.DeleteLeft(r)
		case rec.del:
			err = ref.DeleteRight(r)
		case rec.side == "left":
			err = ref.InsertLeft(r)
		default:
			err = ref.InsertRight(r)
		}
		if err != nil {
			h.t.Fatal(err)
		}
	}
	snap, err := ref.Marshal()
	if err != nil {
		h.t.Fatal(err)
	}
	return snap
}

// verify asserts that, with faults healed, every node serves a full
// merged snapshot byte-identical to the loss-free replay of the acked
// log. The retry loop gives breakers time to half-open and close; a node
// that cannot serve a full answer by the deadline is a wedged router.
func (h *chaosHarness) verify() {
	h.t.Helper()
	want := h.refSnapshot()
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range h.nodes {
		for {
			resp, err := h.client.Get(n.ht.URL + "/v1/estimators/j/snapshot")
			if err == nil {
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					if !bytes.Equal(data, want) {
						h.t.Fatalf("node %s: merged cluster snapshot differs from the loss-free replay of acked updates (%d acked)", n.id, len(h.acked))
					}
					break
				}
			}
			if time.Now().After(deadline) {
				h.t.Fatalf("node %s: no full snapshot before the deadline after faults healed (wedged router?): err=%v", n.id, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// ownsAnyJ reports whether the node owns at least one "j" partition.
func (h *chaosHarness) ownsAnyJ(n *chaosNode) bool {
	for p := 0; p < testPartitions; p++ {
		if owner, ok := h.m.Owner(cluster.ShardName("j", p)); ok && owner.ID == n.id {
			return true
		}
	}
	return false
}

// TestChaosSoak is the seeded end-to-end robustness soak (see the file
// comment for the fault model and the exactness argument).
func TestChaosSoak(t *testing.T) {
	spec, err := faultinject.SoakSpecFromEnv("SPATIAL_CHAOS")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		// Four rounds: every scenario runs once.
		if spec.Rounds > 4 {
			spec.Rounds = 4
		}
		if spec.Writers > 3 {
			spec.Writers = 3
		}
	}
	h := startChaos(t, spec.Seed)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		path := os.Getenv("SPATIAL_CHAOS_LOG")
		if path == "" {
			path = filepath.Join(t.TempDir(), "chaos-events.log")
		}
		f, err := os.Create(path)
		if err != nil {
			t.Logf("cannot write injector event log: %v", err)
			return
		}
		defer f.Close()
		if err := h.in.Dump(f); err != nil {
			t.Logf("dumping injector event log: %v", err)
			return
		}
		t.Logf("injector event log written to %s", path)
	})
	// On failure, also capture each node's retained traces (errored and
	// slow traces are always retained, so the interesting ones survive
	// the sample rate) for the CI artifact. Best-effort: a node that is
	// down or still behind a fault rule just logs and is skipped.
	t.Cleanup(func() {
		dir := os.Getenv("SPATIAL_TRACE_DUMP")
		if !t.Failed() || dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("trace dump: %v", err)
			return
		}
		for _, n := range h.nodes {
			resp, err := h.client.Get(n.ht.URL + "/admin/trace?limit=256")
			if err != nil {
				t.Logf("trace dump: node %s: %v", n.id, err)
				continue
			}
			data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Logf("trace dump: node %s: status %d, err %v", n.id, resp.StatusCode, err)
				continue
			}
			path := filepath.Join(dir, "trace-"+n.id+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Logf("trace dump: %v", err)
				continue
			}
			t.Logf("trace dump: wrote %s", path)
		}
	})

	body, _ := json.Marshal(createRequest{Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: chaosDom, Seed: 1, Instances: 64, Groups: 4}})
	resp, err := h.client.Post(h.nodes[0].ht.URL+"/v1/estimators", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	// Streaming writers ride the whole soak on persistent connections:
	// duplicate frames, mid-stream connection kills and node kills all
	// land on live streams, and every round must still end exact.
	streams := h.startStreams(2)

	// Query traffic runs for the whole soak, through every fault and
	// every kill: estimates are idempotent, so they also run while nodes
	// die. Degraded answers must be well-formed (partial => answered in
	// [1, total)) and must never hang.
	stopQ := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		rng := rand.New(rand.NewSource(spec.Seed ^ 0x5a5a))
		for {
			select {
			case <-stopQ:
				return
			default:
			}
			via := h.nodes[rng.Intn(len(h.nodes))]
			start := time.Now()
			resp, err := h.client.Get(via.ht.URL + "/v1/estimators/j/estimate?partial=ok")
			if err == nil {
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					var er estimateResponse
					if json.Unmarshal(data, &er) == nil && er.Partial {
						if er.PartitionsAnswered <= 0 || er.PartitionsAnswered >= er.PartitionsTotal || er.PartitionsTotal != testPartitions {
							t.Errorf("malformed partial estimate: answered=%d total=%d", er.PartitionsAnswered, er.PartitionsTotal)
						}
					}
				}
			}
			if d := time.Since(start); d > 4*time.Second {
				t.Errorf("query via %s took %v: router wedged under faults", via.id, d)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	rng := rand.New(rand.NewSource(spec.Seed))
	perWriter := 12
	for round := 0; round < spec.Rounds; round++ {
		victim := h.nodes[rng.Intn(len(h.nodes))]
		other := h.nodes[(rng.Intn(len(h.nodes)-1)+1+victimIndex(h, victim))%len(h.nodes)]
		var roundRules []string
		scenario := round % 4
		switch scenario {
		case 0: // asymmetric partition: other can no longer reach victim
			roundRules = append(roundRules, h.in.Partition(other.id, victim.id))
		case 1: // flaky link: fabricated 5xx plus read-only latency spikes
			roundRules = append(roundRules,
				h.in.Add(faultinject.Rule{To: victim.id, Kind: faultinject.KindStatus, P: 0.35}),
				h.in.Add(faultinject.Rule{To: other.id, Methods: "GET", Kind: faultinject.KindLatency, P: 0.5, Latency: 30 * time.Millisecond}))
		case 2: // disk full: every WAL write on victim fails before any byte lands
			roundRules = append(roundRules,
				h.in.Add(faultinject.Rule{To: victim.id, Kind: faultinject.KindWALWrite}))
		case 3: // torn reads: GET responses to victim truncate mid-body
			roundRules = append(roundRules,
				h.in.Add(faultinject.Rule{To: victim.id, Methods: "GET", Kind: faultinject.KindTruncate, P: 0.5}))
		}
		if scenario == 1 || scenario == 3 {
			h.peerReads(round, 30, roundRules)
		}

		h.burst(spec.Seed+int64(round*1000), spec.Writers, perWriter)
		h.streamRound(spec.Seed+int64(round*1000+500), streams, rng)

		if scenario == 2 && h.ownsAnyJ(victim) {
			// Drive writes until one lands on a victim-owned partition
			// (poisoning its WAL), then the node must report not-ready
			// while staying alive on /healthz.
			poisonRng := rand.New(rand.NewSource(spec.Seed + int64(round) + 7))
			poisoned := false
			for i := 0; i < 200 && !poisoned; i++ {
				poisoned = !h.postJ(victim, ackedRec{side: "left", wr: randRect(poisonRng, chaosDom)})
			}
			if !poisoned {
				t.Fatalf("round %d: 200 writes via %s all acked with its WAL poisoned", round, victim.id)
			}
			assertStatus(t, h.client, victim.ht.URL+"/healthz", http.StatusOK)
			assertStatus(t, h.client, victim.ht.URL+"/readyz", http.StatusServiceUnavailable)
		}

		for _, id := range roundRules {
			h.in.Remove(id)
		}
		// A poisoned WAL is sticky by design: the node must be restarted.
		// Other rounds crash the victim half the time anyway.
		if scenario == 2 || rng.Intn(2) == 0 {
			h.kill(victim)
			h.restart(victim)
		}
		h.flushStreams(streams)
		h.verify()
	}
	close(stopQ)
	qwg.Wait()
}

// peerReads drives n ?partial=ok estimates through the nodes in turn
// while a round's read rules are active, and fails unless each rule
// fired on at least one peer call: every node owns a partition of "j",
// so each read asks every other node for its partitions.
func (h *chaosHarness) peerReads(round, n int, rules []string) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		resp, err := h.client.Get(h.nodes[i%len(h.nodes)].ht.URL + "/v1/estimators/j/estimate?partial=ok")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	fired, kinds := map[string]int{}, map[string]int{}
	for _, e := range h.in.Events() {
		if strings.HasSuffix(e.Detail, cluster.PeerPath+" call") {
			fired[e.Rule]++
			kinds[e.Kind]++
		}
	}
	for _, id := range rules {
		if fired[id] == 0 {
			h.t.Errorf("round %d: rule %s fired on no peer call in %d reads", round, id, n)
		}
	}
	h.t.Logf("round %d: peer-call faults so far, by kind: %v", round, kinds)
}

// chaosStream is one persistent streaming-ingest writer riding the
// soak: duplicate frames injected every third batch, a harness-killable
// connection, and a pending log of everything sent this round that is
// promoted into the acked log only after Flush proves it durable.
type chaosStream struct {
	c       *ingestclient.Client
	mu      sync.Mutex
	conn    net.Conn
	pending []ackedRec
}

// killConn tears down the writer's live connection mid-stream (the
// client reconnects, resumes from the server watermark and resends the
// unacked suffix - the frames the soak must prove are deduped).
func (cs *chaosStream) killConn() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.conn != nil {
		cs.conn.Close()
	}
}

// startStreams opens one streaming writer per entry node. The raw TCP
// dial bypasses the injector's HTTP fault plane on purpose: stream
// traffic meets the faults where they matter for exactness - inside the
// server (poisoned WALs, kills) and on the injected internal fan-out -
// while explicit killConn and node kills supply the wire-level chaos.
func (h *chaosHarness) startStreams(n int) []*chaosStream {
	h.t.Helper()
	streams := make([]*chaosStream, n)
	for i := range streams {
		cs := &chaosStream{}
		target := h.nodes[i%len(h.nodes)]
		u, err := url.Parse(target.ht.URL)
		if err != nil {
			h.t.Fatal(err)
		}
		host := u.Host
		c, err := ingestclient.Dial(ingestclient.Options{
			BaseURL:    target.ht.URL,
			Estimator:  "j",
			Session:    fmt.Sprintf("soak-w%d", i),
			DupEvery:   3,
			MinBackoff: 20 * time.Millisecond,
			MaxBackoff: 250 * time.Millisecond,
			Dial: func() (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", host, 2*time.Second)
				if err != nil {
					return nil, err
				}
				cs.mu.Lock()
				cs.conn = conn
				cs.mu.Unlock()
				return conn, nil
			},
		})
		if err != nil {
			h.t.Fatal(err)
		}
		cs.c = c
		h.t.Cleanup(func() { c.Close() })
		streams[i] = cs
	}
	return streams
}

// streamRound sends this round's seeded insert batches on every stream
// writer (Send is windowed and non-durable; acks arrive while the
// round's faults are active) and kills one writer's connection
// mid-stream.
func (h *chaosHarness) streamRound(seed int64, streams []*chaosStream, rng *rand.Rand) {
	h.t.Helper()
	for si, cs := range streams {
		srng := rand.New(rand.NewSource(seed + int64(si)))
		for bi := 0; bi < 3; bi++ {
			recs := make([]spatial.UpdateRecord, 0, 6)
			for k := 0; k < 6; k++ {
				wr := randRect(srng, chaosDom)
				rec := ackedRec{side: "left", wr: wr}
				side := spatial.SideLeft
				if srng.Intn(2) == 1 {
					rec.side, side = "right", spatial.SideRight
				}
				recs = append(recs, spatial.UpdateRecord{Op: spatial.OpInsert, Side: side,
					Rect: geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])})
				cs.pending = append(cs.pending, rec)
			}
			if err := cs.c.Send(recs); err != nil {
				h.t.Fatalf("stream writer %d: terminal send error under retryable faults: %v", si, err)
			}
		}
	}
	streams[rng.Intn(len(streams))].killConn()
}

// flushStreams drains every writer with the faults healed: Flush proves
// each sent batch acked (durable, exactly once), which promotes the
// pending records into the acked log the reference replay uses. A
// writer that cannot drain is a wedged resume loop.
func (h *chaosHarness) flushStreams(streams []*chaosStream) {
	h.t.Helper()
	for si, cs := range streams {
		done := make(chan error, 1)
		go func() { done <- cs.c.Flush() }()
		select {
		case err := <-done:
			if err != nil {
				h.t.Fatalf("stream writer %d: flush: %v", si, err)
			}
		case <-time.After(45 * time.Second):
			h.t.Fatalf("stream writer %d: flush did not drain with faults healed (wedged resume loop?)", si)
		}
		h.mu.Lock()
		h.acked = append(h.acked, cs.pending...)
		h.mu.Unlock()
		cs.pending = nil
	}
}

// victimIndex returns the node's index in the harness.
func victimIndex(h *chaosHarness, n *chaosNode) int {
	for i, c := range h.nodes {
		if c == n {
			return i
		}
	}
	return -1
}

// assertStatus GETs the URL and requires the status code.
func assertStatus(t *testing.T, client *http.Client, url string, want int) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
}

// TestPartialEstimateDegradesExactly pins the degraded-read contract
// deterministically: with one owner dead, ?partial=ok answers 200 with
// exactly the reachable partitions counted, the plain estimate is 502,
// and after the node returns the full answer is exact again.
func TestPartialEstimateDegradesExactly(t *testing.T) {
	h := startChaos(t, 42)
	mustDo(t, "POST", h.nodes[0].ht.URL+"/v1/estimators", mustJSON(t, createRequest{
		Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: chaosDom, Seed: 1, Instances: 64, Groups: 4},
	}), http.StatusCreated)

	// Ingest a deterministic stream so estimates are non-trivial.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		rec := ackedRec{side: "left", wr: randRect(rng, chaosDom)}
		if i%2 == 1 {
			rec.side = "right"
		}
		if !h.postJ(h.nodes[i%3], rec) {
			t.Fatalf("update %d failed with no faults active", i)
		}
	}

	// Pick a victim that owns some but not all partitions, viewed from a
	// surviving entry node.
	var victim, entry *chaosNode
	owned := 0
	for _, n := range h.nodes {
		k := 0
		for p := 0; p < testPartitions; p++ {
			if owner, ok := h.m.Owner(cluster.ShardName("j", p)); ok && owner.ID == n.id {
				k++
			}
		}
		if k > 0 && k < testPartitions && victim == nil {
			victim, owned = n, k
		}
	}
	if victim == nil {
		t.Fatal("no node owns a strict subset of partitions; cannot stage a partial read")
	}
	for _, n := range h.nodes {
		if n != victim {
			entry = n
			break
		}
	}

	h.kill(victim)

	// The strict estimate must refuse to lie: 502, not a silent partial.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := h.client.Get(entry.ht.URL + "/v1/estimators/j/estimate")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusBadGateway {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("strict estimate never degraded to 502 with an owner dead")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// ?partial=ok answers with exactly the reachable partitions.
	resp, err := h.client.Get(entry.ht.URL + "/v1/estimators/j/estimate?partial=ok")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial estimate: status %d: %s", resp.StatusCode, data)
	}
	var er estimateResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Partial || er.PartitionsTotal != testPartitions || er.PartitionsAnswered != testPartitions-owned {
		t.Fatalf("partial estimate = {partial:%v answered:%d total:%d}, want {true %d %d}",
			er.Partial, er.PartitionsAnswered, er.PartitionsTotal, testPartitions-owned, testPartitions)
	}

	// Full exactness returns once the owner is back.
	h.restart(victim)
	h.verify()
	resp, err = h.client.Get(entry.ht.URL + "/v1/estimators/j/estimate?partial=ok")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed estimate: status %d: %s", resp.StatusCode, data)
	}
	er = estimateResponse{}
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Partial {
		t.Fatalf("healed estimate still partial: answered=%d total=%d", er.PartitionsAnswered, er.PartitionsTotal)
	}
}

// mustJSON marshals v or fails the test.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
