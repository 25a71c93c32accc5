package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/ingestclient"
	"repro/internal/ingest"
)

// Streaming ingest tests: the exactly-once contract is checked the same
// way the chaos soak checks it - server snapshots must be BYTE-identical
// to a loss-free reference that saw every record exactly once, no matter
// how many duplicate frames, reconnects or crash-recoveries happened on
// the way.

const streamDom = 1 << 12

// streamNode is a persistent single node behind a stable httptest
// listener that can be crashed (abrupt WAL close, no final checkpoint)
// and rebooted on the same data dir.
type streamNode struct {
	t   *testing.T
	dir string
	ht  *httptest.Server
	cur atomic.Pointer[Server]
}

func startStreamNode(t *testing.T) *streamNode {
	t.Helper()
	checkGoroutineLeaks(t)
	n := &streamNode{t: t, dir: filepath.Join(t.TempDir(), "node")}
	n.ht = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := n.cur.Load()
		if s == nil {
			panic(http.ErrAbortHandler) // crashed: the connection dies
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(n.ht.Close)
	n.boot()
	t.Cleanup(func() {
		if s := n.cur.Swap(nil); s != nil {
			s.Close()
		}
	})
	return n
}

func (n *streamNode) boot() {
	n.t.Helper()
	srv, err := NewPersistentServer(PersistOptions{DataDir: n.dir})
	if err != nil {
		n.t.Fatal(err)
	}
	n.cur.Store(srv)
}

// crash abruptly closes the WAL (no final checkpoint) and detaches the
// server, so recovery must come from the WAL tail like a real kill.
func (n *streamNode) crash() {
	n.t.Helper()
	if s := n.cur.Swap(nil); s != nil {
		if err := s.persist.close(true); err != nil {
			n.t.Fatal(err)
		}
	}
}

// createJoin creates the canonical 2-d join estimator "j".
func createStreamJoin(t *testing.T, base string) {
	t.Helper()
	mustDo(t, "POST", base+"/v1/estimators", mustJSON(t, createRequest{
		Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: streamDom, Seed: 1, Instances: 64, Groups: 4},
	}), http.StatusCreated)
}

// refJoin builds the loss-free reference estimator matching createJoin.
func refJoin(t *testing.T) *spatial.JoinEstimator {
	t.Helper()
	ref, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: streamDom, Seed: 1, Sizing: spatial.Sizing{Instances: 64, Groups: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// streamBatch builds one deterministic batch: mostly inserts on random
// sides, plus an occasional delete of a previously inserted record so
// the delete path rides the stream too.
func streamBatch(rng *rand.Rand, nrec int, history *[]spatial.UpdateRecord) []spatial.UpdateRecord {
	recs := make([]spatial.UpdateRecord, 0, nrec)
	for i := 0; i < nrec; i++ {
		if len(*history) > 0 && rng.Intn(8) == 0 {
			pick := (*history)[rng.Intn(len(*history))]
			pick.Op = spatial.OpDelete
			recs = append(recs, pick)
			continue
		}
		wr := randRect(rng, streamDom)
		side := spatial.SideLeft
		if rng.Intn(2) == 1 {
			side = spatial.SideRight
		}
		rec := spatial.UpdateRecord{Op: spatial.OpInsert, Side: side,
			Rect: geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])}
		recs = append(recs, rec)
		*history = append(*history, rec)
	}
	return recs
}

// applyRef replays records into the reference estimator.
func applyRef(t *testing.T, ref *spatial.JoinEstimator, recs []spatial.UpdateRecord) {
	t.Helper()
	for _, r := range recs {
		var err error
		switch {
		case r.Side == spatial.SideLeft && r.Op == spatial.OpInsert:
			err = ref.InsertLeft(r.Rect)
		case r.Side == spatial.SideLeft:
			err = ref.DeleteLeft(r.Rect)
		case r.Op == spatial.OpInsert:
			err = ref.InsertRight(r.Rect)
		default:
			err = ref.DeleteRight(r.Rect)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mustMatchRef requires the server snapshot to be byte-identical to the
// reference.
func mustMatchRef(t *testing.T, base string, ref *spatial.JoinEstimator, when string) {
	t.Helper()
	want, err := ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got := mustDo(t, "GET", base+"/v1/estimators/j/snapshot", nil, http.StatusOK)
	if string(got) != string(want) {
		t.Fatalf("%s: server snapshot differs from loss-free reference", when)
	}
}

// dialStreamRaw performs the upgrade handshake by hand and returns the
// live connection plus the server's resume state - the test-side view of
// exactly what a reconnecting client is told.
func dialStreamRaw(t *testing.T, baseURL, estimator, session string) (net.Conn, *bufio.Reader, ingest.HelloAck) {
	t.Helper()
	u, err := url.Parse(baseURL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := fmt.Sprintf("POST /v1/ingest HTTP/1.1\r\nHost: %s\r\nUpgrade: %s\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n",
		u.Host, ingest.Protocol)
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: status %d, want 101", resp.StatusCode)
	}
	if _, err := conn.Write(ingest.AppendHello(nil, ingest.Hello{Session: session, Estimator: estimator})); err != nil {
		t.Fatal(err)
	}
	ft, body, err := ingest.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if ft != ingest.FrameHelloAck {
		t.Fatalf("handshake answered frame type %d, want hello-ack", ft)
	}
	ha, err := ingest.DecodeHelloAck(body)
	if err != nil {
		t.Fatal(err)
	}
	return conn, br, ha
}

// TestStreamIngestExactlyOnce streams batches with duplicate frames
// injected every third batch: the duplicates must be dropped and
// re-acked, never re-applied, and the stream metrics must record them.
func TestStreamIngestExactlyOnce(t *testing.T) {
	n := startStreamNode(t)
	createStreamJoin(t, n.ht.URL)
	ref := refJoin(t)

	c, err := ingestclient.Dial(ingestclient.Options{
		BaseURL: n.ht.URL, Estimator: "j", Session: "w1", DupEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(11))
	var history []spatial.UpdateRecord
	const batches = 8
	for i := 0; i < batches; i++ {
		recs := streamBatch(rng, 16, &history)
		applyRef(t, ref, recs)
		if err := c.Send(recs); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i == 0 {
			// Wait out the background connect: duplicate-frame injection
			// only fires on direct writes to a live connection.
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Acked(); got != batches {
		t.Fatalf("acked watermark = %d, want %d", got, batches)
	}
	mustMatchRef(t, n.ht.URL, ref, "after streaming with duplicate frames")

	page := string(mustDo(t, "GET", n.ht.URL+"/metrics", nil, http.StatusOK))
	for _, want := range []string{
		`spatialserve_ingest_batches_total{tenant="default",result="acked"}`,
		`spatialserve_ingest_batches_total{tenant="default",result="deduped"}`,
		`spatialserve_ingest_records_total{tenant="default"}`,
		`spatialserve_ingest_ack_seconds`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}
}

// TestStreamIngestResendKeepsOrder: batches queued before the first
// connection are resent while Send keeps writing new ones, with the
// resent frames slowed down so new frames are waiting behind them. Every
// batch frame must reach the wire in sequence order - the server drops a
// batch at or below the highest sequence number it applied, so a frame
// overtaken by a later one would be acked and lost.
func TestStreamIngestResendKeepsOrder(t *testing.T) {
	n := startStreamNode(t)
	createStreamJoin(t, n.ht.URL)
	ref := refJoin(t)
	u, err := url.Parse(n.ht.URL)
	if err != nil {
		t.Fatal(err)
	}
	release, resending := make(chan struct{}), make(chan struct{})
	wire := &seqLog{}
	c, err := ingestclient.Dial(ingestclient.Options{
		BaseURL: n.ht.URL, Estimator: "j", Session: "order",
		Dial: func() (net.Conn, error) {
			<-release
			conn, err := net.Dial("tcp", u.Host)
			if err != nil {
				return nil, err
			}
			return &slowBatchConn{Conn: conn, log: wire, slow: 4, resending: resending}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(23))
	var history []spatial.UpdateRecord
	send := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			recs := streamBatch(rng, 12, &history)
			applyRef(t, ref, recs)
			if err := c.Send(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(4) // queued: the connection is held back
	close(release)
	<-resending // the resend of batches 1-4 is on the wire, slowly
	send(12)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := wire.seqs(); len(got) != 16 {
		t.Fatalf("batch frames on the wire: %v, want 1..16 once each", got)
	} else {
		for i, seq := range got {
			if seq != uint64(i+1) {
				t.Fatalf("batch frames on the wire: %v, want 1..16 in order", got)
			}
		}
	}
	mustMatchRef(t, n.ht.URL, ref, "after a resend raced Send")
}

// seqLog records, across connections, the sequence numbers of batch
// frames in write order.
type seqLog struct {
	mu  sync.Mutex
	log []uint64
}

// add records seq and returns how many batch frames were written before.
func (l *seqLog) add(seq uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = append(l.log, seq)
	return len(l.log) - 1
}

func (l *seqLog) seqs() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.log...)
}

// slowBatchConn logs every batch frame written to it (the client writes
// one frame per Write) and holds each of the first slow ones back for
// 5 ms, closing resending at the first, so later frames queue up behind
// them.
type slowBatchConn struct {
	net.Conn
	log       *seqLog
	slow      int
	resending chan struct{}
}

func (c *slowBatchConn) Write(p []byte) (int, error) {
	if len(p) > 0 && ingest.FrameType(p[0]) == ingest.FrameBatch {
		if _, body, err := ingest.ReadFrame(bufio.NewReader(bytes.NewReader(p))); err == nil {
			if b, err := ingest.DecodeBatch(body); err == nil {
				if before := c.log.add(b.Seq); before < c.slow {
					if before == 0 {
						close(c.resending)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}
	}
	return c.Conn.Write(p)
}

// TestStreamIngestCrashResume crashes the server mid-session: the SAME
// client must reconnect, resume from the persisted watermark and finish
// the stream with nothing lost and nothing doubled. A full manual replay
// of every batch afterwards must be entirely deduped.
func TestStreamIngestCrashResume(t *testing.T) {
	n := startStreamNode(t)
	createStreamJoin(t, n.ht.URL)
	ref := refJoin(t)

	c, err := ingestclient.Dial(ingestclient.Options{
		BaseURL: n.ht.URL, Estimator: "j", Session: "w1",
		MinBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(17))
	var history []spatial.UpdateRecord
	var frames [][]byte // every batch frame ever acked, for the replay
	send := func(count int, from int) {
		t.Helper()
		for i := 0; i < count; i++ {
			recs := streamBatch(rng, 12, &history)
			applyRef(t, ref, recs)
			var enc []byte
			for _, r := range recs {
				enc = r.AppendBinary(enc)
			}
			frames = append(frames, ingest.AppendBatch(nil, uint64(from+i+1), len(recs), enc))
			if err := c.Send(recs); err != nil {
				t.Fatalf("send %d: %v", from+i, err)
			}
		}
	}

	send(6, 0)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	n.crash()
	n.boot()
	send(6, 6) // client reconnects with backoff and resends unacked
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Acked(); got != 12 {
		t.Fatalf("acked watermark = %d, want 12", got)
	}
	mustMatchRef(t, n.ht.URL, ref, "after crash-recovery resume")

	// The recovered watermark must be advertised on reconnect...
	conn, br, ha := dialStreamRaw(t, n.ht.URL, "j", "w1")
	defer conn.Close()
	if ha.Watermark != 12 {
		t.Fatalf("recovered HelloAck watermark = %d, want 12", ha.Watermark)
	}
	// ...and a full replay of every acked batch must be dropped (and
	// re-acked) by the watermark, leaving the snapshot untouched.
	for i, f := range frames {
		if _, err := conn.Write(f); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		ft, body, err := ingest.ReadFrame(br)
		if err != nil || ft != ingest.FrameAck {
			t.Fatalf("replay %d: frame type %d, err %v (want ack)", i, ft, err)
		}
		if seq, _ := ingest.DecodeAck(body); seq != uint64(i+1) {
			t.Fatalf("replay %d: acked seq %d, want %d", i, seq, i+1)
		}
	}
	mustMatchRef(t, n.ht.URL, ref, "after replaying every acked batch")
}

// TestStreamIngestCluster streams through a routing node of a 3-node
// persistent cluster with duplicate frames injected: per-partition
// fan-out must carry (session, seq) so every node's merged snapshot
// stays byte-identical to the loss-free reference. The JSON
// Idempotency-Key path rides the same machinery through routeIngest.
func TestStreamIngestCluster(t *testing.T) {
	_, urls := startCluster(t, 3, true)
	mustDo(t, "POST", urls[0]+"/v1/estimators", mustJSON(t, createRequest{
		Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: streamDom, Seed: 1, Instances: 64, Groups: 4},
	}), http.StatusCreated)
	ref := refJoin(t)

	c, err := ingestclient.Dial(ingestclient.Options{
		BaseURL: urls[1], Estimator: "j", Session: "w1", DupEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(23))
	var history []spatial.UpdateRecord
	const batches = 10
	for i := 0; i < batches; i++ {
		recs := streamBatch(rng, 12, &history)
		applyRef(t, ref, recs)
		if err := c.Send(recs); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range urls {
		got := mustDo(t, "GET", u+"/v1/estimators/j/snapshot", nil, http.StatusOK)
		if string(got) != string(want) {
			t.Fatalf("node %d: merged snapshot differs from loss-free reference", i)
		}
	}

	// The routing node's resume hint reflects the fully-acked stream.
	conn, _, ha := dialStreamRaw(t, urls[1], "j", "w1")
	conn.Close()
	if ha.Watermark != batches {
		t.Fatalf("routing watermark = %d, want %d", ha.Watermark, batches)
	}

	// Idempotency-Key through cluster routing: the retry is a durable
	// no-op on every owner it reached.
	wr := randRect(rng, streamDom)
	body := mustJSON(t, updateRequest{Side: "left", Rects: [][][2]uint64{wr}})
	hdr := map[string]string{"Idempotency-Key": "ck-1", "Content-Type": "application/json"}
	resp, data := httpDo(t, "POST", urls[2]+"/v1/estimators/j/update", body, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent update: status %d: %s", resp.StatusCode, data)
	}
	if err := ref.InsertLeft(geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])); err != nil {
		t.Fatal(err)
	}
	resp, data = httpDo(t, "POST", urls[2]+"/v1/estimators/j/update", body, hdr)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"deduped":true`) {
		t.Fatalf("idempotent retry: status %d, body %s (want 200 with deduped)", resp.StatusCode, data)
	}
	want, err = ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got := mustDo(t, "GET", urls[0]+"/v1/estimators/j/snapshot", nil, http.StatusOK)
	if string(got) != string(want) {
		t.Fatal("idempotent retry changed the merged snapshot")
	}
}

// TestIdempotencyKeyUpdate pins the JSON-path exactly-once contract on a
// single persistent node: a retried key is a durable no-op that answers
// 200 with Deduped set, and the dedup survives an abrupt crash.
func TestIdempotencyKeyUpdate(t *testing.T) {
	n := startStreamNode(t)
	createStreamJoin(t, n.ht.URL)
	ref := refJoin(t)

	rng := rand.New(rand.NewSource(31))
	wr := randRect(rng, streamDom)
	body := mustJSON(t, updateRequest{Side: "left", Rects: [][][2]uint64{wr}})
	hdr := map[string]string{"Idempotency-Key": "k-1", "Content-Type": "application/json"}
	u := n.ht.URL + "/v1/estimators/j/update"

	resp, data := httpDo(t, "POST", u, body, hdr)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"applied":1`) {
		t.Fatalf("first apply: status %d, body %s", resp.StatusCode, data)
	}
	if err := ref.InsertLeft(geo.Rect(wr[0][0], wr[0][1], wr[1][0], wr[1][1])); err != nil {
		t.Fatal(err)
	}

	for attempt := 0; attempt < 2; attempt++ {
		resp, data = httpDo(t, "POST", u, body, hdr)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"deduped":true`) {
			t.Fatalf("retry %d: status %d, body %s (want 200 with deduped)", attempt, resp.StatusCode, data)
		}
	}
	mustMatchRef(t, n.ht.URL, ref, "after idempotent retries")

	// The watermark is in the WAL: a crash must not reopen the window.
	n.crash()
	n.boot()
	resp, data = httpDo(t, "POST", u, body, hdr)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"deduped":true`) {
		t.Fatalf("post-crash retry: status %d, body %s (want 200 with deduped)", resp.StatusCode, data)
	}
	mustMatchRef(t, n.ht.URL, ref, "after crash-recovery retry")

	// A fresh key applies; a malformed key is refused outright.
	hdr["Idempotency-Key"] = "k-2"
	resp, data = httpDo(t, "POST", u, body, hdr)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"applied":1`) {
		t.Fatalf("fresh key: status %d, body %s", resp.StatusCode, data)
	}
	hdr["Idempotency-Key"] = "bad key with spaces"
	resp, _ = httpDo(t, "POST", u, body, hdr)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: status %d, want 400", resp.StatusCode)
	}
}

// TestStreamIngestUnknownEstimator pins the terminal-error path: a
// stream into a missing estimator fails the client permanently instead
// of reconnect-looping.
func TestStreamIngestUnknownEstimator(t *testing.T) {
	n := startStreamNode(t)
	c, err := ingestclient.Dial(ingestclient.Options{
		BaseURL: n.ht.URL, Estimator: "nope", Session: "w1",
		MinBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]spatial.UpdateRecord{
		{Op: spatial.OpInsert, Side: spatial.SideLeft, Rect: geo.Rect(1, 2, 3, 4)},
	}); err != nil {
		// Send may observe the terminal error directly; that is fine.
		checkStreamNotFound(t, err)
		return
	}
	checkStreamNotFound(t, c.Flush())
}

// checkStreamNotFound requires a terminal not-found stream error.
func checkStreamNotFound(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("stream into a missing estimator succeeded")
	}
	var se *ingest.StreamError
	if !errors.As(err, &se) || se.Code != ingest.CodeNotFound {
		t.Fatalf("error %v, want terminal not-found stream error", err)
	}
}
