package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// do runs one request against the handler in-process and returns the
// recorder.
func do(t testing.TB, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	if t != nil {
		t.Helper()
	}
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func mustStatus(t testing.TB, w *httptest.ResponseRecorder, want int) {
	if h, ok := t.(*testing.T); ok {
		h.Helper()
	}
	if w.Code != want {
		t.Fatalf("status %d, want %d: %s", w.Code, want, w.Body.String())
	}
}

// randRect emits a non-degenerate 2-d rectangle inside dom.
func randRect(rng *rand.Rand, dom uint64) [][2]uint64 {
	rect := make([][2]uint64, 2)
	for d := range rect {
		lo := rng.Uint64() % (dom - 2)
		hi := lo + 1 + rng.Uint64()%(dom-lo-1)
		rect[d] = [2]uint64{lo, hi}
	}
	return rect
}

func updateBody(t testing.TB, side string, rects [][][2]uint64) []byte {
	b, err := json.Marshal(updateRequest{Side: side, Rects: rects})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func createJoin(t testing.TB, h http.Handler, name string, dom uint64) {
	body, _ := json.Marshal(createRequest{
		Name: name, Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: dom, Seed: 42, Instances: 64, Groups: 4},
	})
	mustStatus(t, do(t, h, "POST", "/v1/estimators", body), http.StatusCreated)
}

func TestServerLifecycle(t *testing.T) {
	checkGoroutineLeaks(t)
	h := NewServer()
	const dom = 1 << 12

	// Create all four kinds.
	for _, c := range []createRequest{
		{Name: "j", Kind: "join", Config: configRequest{Dims: 2, DomainSize: dom, Seed: 1, Instances: 64, Groups: 4}},
		{Name: "r", Kind: "range", Config: configRequest{Dims: 1, DomainSize: dom, Seed: 2, Instances: 64, Groups: 4}},
		{Name: "e", Kind: "epsjoin", Config: configRequest{Dims: 2, DomainSize: dom, Eps: 8, Seed: 3, Instances: 64, Groups: 4}},
		{Name: "c", Kind: "containment", Config: configRequest{Dims: 2, DomainSize: dom, Seed: 4, Instances: 64, Groups: 4}},
	} {
		body, _ := json.Marshal(c)
		mustStatus(t, do(t, h, "POST", "/v1/estimators", body), http.StatusCreated)
	}
	// Duplicate name conflicts.
	body, _ := json.Marshal(createRequest{Name: "j", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: dom, Seed: 1}})
	mustStatus(t, do(t, h, "POST", "/v1/estimators", body), http.StatusConflict)
	// Unknown kind rejected.
	body, _ = json.Marshal(createRequest{Name: "x", Kind: "quantile",
		Config: configRequest{Dims: 1, DomainSize: dom}})
	mustStatus(t, do(t, h, "POST", "/v1/estimators", body), http.StatusBadRequest)

	// Join traffic: insert both sides, estimate, check selectivity shows up.
	rng := rand.New(rand.NewSource(7))
	var rects [][][2]uint64
	for i := 0; i < 64; i++ {
		rects = append(rects, randRect(rng, dom))
	}
	mustStatus(t, do(t, h, "POST", "/v1/estimators/j/update", updateBody(t, "left", rects)), http.StatusOK)
	mustStatus(t, do(t, h, "POST", "/v1/estimators/j/update", updateBody(t, "right", rects)), http.StatusOK)
	w := do(t, h, "GET", "/v1/estimators/j/estimate", nil)
	mustStatus(t, w, http.StatusOK)
	var est estimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &est); err != nil {
		t.Fatal(err)
	}
	if est.Counts["left"] != 64 || est.Counts["right"] != 64 {
		t.Fatalf("counts after insert: %+v", est.Counts)
	}
	if est.Selectivity == nil {
		t.Fatal("selectivity missing on non-empty inputs")
	}

	// Deletes bring a count back down.
	one := rects[:1]
	b, _ := json.Marshal(updateRequest{Op: "delete", Side: "left", Rects: one})
	mustStatus(t, do(t, h, "POST", "/v1/estimators/j/update", b), http.StatusOK)
	w = do(t, h, "GET", "/v1/estimators/j", nil)
	mustStatus(t, w, http.StatusOK)
	var info infoResponse
	json.Unmarshal(w.Body.Bytes(), &info)
	if info.Counts["left"] != 63 {
		t.Fatalf("left count after delete = %d", info.Counts["left"])
	}

	// Range estimate needs a query.
	mustStatus(t, do(t, h, "POST", "/v1/estimators/r/update",
		updateBody(t, "", [][][2]uint64{{{5, 100}}, {{50, 400}}})), http.StatusOK)
	mustStatus(t, do(t, h, "GET", "/v1/estimators/r/estimate", nil), http.StatusBadRequest)
	qb, _ := json.Marshal(estimateRequest{Query: [][2]uint64{{0, 300}}})
	w = do(t, h, "POST", "/v1/estimators/r/estimate", qb)
	mustStatus(t, w, http.StatusOK)
	var single estimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}

	// Batched range estimates: one view, results match single queries.
	qb, _ = json.Marshal(estimateRequest{Queries: [][][2]uint64{{{0, 300}}, {{100, 500}}}})
	w = do(t, h, "POST", "/v1/estimators/r/estimate", qb)
	mustStatus(t, w, http.StatusOK)
	var batch batchEstimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(batch.Results))
	}
	if batch.Results[0].Value != single.Value || batch.Results[0].Counts["data"] != single.Counts["data"] {
		t.Fatalf("batch result %+v != single result %+v", batch.Results[0], single)
	}
	// Mixing query and queries, and batching a queryless kind, are request
	// errors; a malformed entry INSIDE a batch is a per-result error (the
	// rest of the batch still answers - see TestEstimateBatchPerQueryErrors).
	qb, _ = json.Marshal(estimateRequest{Query: [][2]uint64{{0, 300}}, Queries: [][][2]uint64{{{0, 300}}}})
	mustStatus(t, do(t, h, "POST", "/v1/estimators/r/estimate", qb), http.StatusBadRequest)
	qb, _ = json.Marshal(estimateRequest{Queries: [][][2]uint64{{{0, 300}}}})
	mustStatus(t, do(t, h, "POST", "/v1/estimators/j/estimate", qb), http.StatusBadRequest)
	qb, _ = json.Marshal(estimateRequest{Queries: [][][2]uint64{{}}})
	we := do(t, h, "POST", "/v1/estimators/r/estimate", qb)
	mustStatus(t, we, http.StatusOK)
	var errBatch batchEstimateResponse
	if err := json.Unmarshal(we.Body.Bytes(), &errBatch); err != nil {
		t.Fatal(err)
	}
	if len(errBatch.Results) != 1 || errBatch.Results[0].Error == "" {
		t.Fatalf("empty batch entry did not produce a per-result error: %s", we.Body.String())
	}

	// Snapshot round trip through PUT restore: identical estimates.
	snap := do(t, h, "GET", "/v1/estimators/j/snapshot", nil)
	mustStatus(t, snap, http.StatusOK)
	mustStatus(t, do(t, h, "PUT", "/v1/estimators/j2/snapshot", snap.Body.Bytes()), http.StatusOK)
	w1 := do(t, h, "GET", "/v1/estimators/j/estimate", nil)
	w2 := do(t, h, "GET", "/v1/estimators/j2/estimate", nil)
	var e1, e2 estimateResponse
	json.Unmarshal(w1.Body.Bytes(), &e1)
	json.Unmarshal(w2.Body.Bytes(), &e2)
	if e1.Value != e2.Value || e1.Mean != e2.Mean {
		t.Fatalf("restored estimator estimate (%g, %g) != source (%g, %g)", e2.Value, e2.Mean, e1.Value, e1.Mean)
	}

	// Merging j2 into j doubles the counts; merging into a mismatched
	// estimator is a conflict caught at decode time.
	mustStatus(t, do(t, h, "POST", "/v1/estimators/j/merge", snap.Body.Bytes()), http.StatusOK)
	w = do(t, h, "GET", "/v1/estimators/j", nil)
	json.Unmarshal(w.Body.Bytes(), &info)
	if info.Counts["left"] != 126 {
		t.Fatalf("left count after merge = %d", info.Counts["left"])
	}
	mustStatus(t, do(t, h, "POST", "/v1/estimators/r/merge", snap.Body.Bytes()), http.StatusConflict)

	// Garbage snapshots are rejected.
	mustStatus(t, do(t, h, "PUT", "/v1/estimators/bad/snapshot", []byte("not a snapshot")), http.StatusBadRequest)

	// Delete.
	mustStatus(t, do(t, h, "DELETE", "/v1/estimators/j2", nil), http.StatusOK)
	mustStatus(t, do(t, h, "DELETE", "/v1/estimators/j2", nil), http.StatusNotFound)
}

// TestServeConcurrentMixed hammers one estimator with mixed reader/writer
// traffic from many goroutines - the acceptance gate for the concurrency
// layer, meaningful under -race.
func TestServeConcurrentMixed(t *testing.T) {
	checkGoroutineLeaks(t)
	h := NewServer()
	const dom = 1 << 12
	createJoin(t, h, "mix", dom)

	const workers = 8
	iters := 60
	if testing.Short() {
		iters = 25
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers*iters)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				var w *httptest.ResponseRecorder
				switch i % 6 {
				case 0, 1, 2: // writer: batch insert on one side
					side := "left"
					if g%2 == 1 {
						side = "right"
					}
					w = do(nil, h, "POST", "/v1/estimators/mix/update",
						updateBody(t, side, [][][2]uint64{randRect(rng, dom), randRect(rng, dom)}))
				case 3: // reader: estimate
					w = do(nil, h, "GET", "/v1/estimators/mix/estimate", nil)
				case 4: // reader: snapshot
					w = do(nil, h, "GET", "/v1/estimators/mix/snapshot", nil)
				case 5: // reader+writer: snapshot then merge it back in
					snap := do(nil, h, "GET", "/v1/estimators/mix/snapshot", nil)
					if snap.Code != http.StatusOK {
						errs <- fmt.Sprintf("snapshot: %d %s", snap.Code, snap.Body.String())
						continue
					}
					w = do(nil, h, "POST", "/v1/estimators/mix/merge", snap.Body.Bytes())
				}
				if w.Code != http.StatusOK {
					errs <- fmt.Sprintf("op %d: %d %s", i%6, w.Code, w.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// The registry itself must also survive concurrent create/delete/list.
	wg = sync.WaitGroup{}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("tmp-%d", g)
			for i := 0; i < 10; i++ {
				createJoin(t, h, name, dom)
				do(nil, h, "GET", "/v1/estimators", nil)
				do(nil, h, "DELETE", "/v1/estimators/"+name, nil)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkServeMixed measures mixed reader/writer serving throughput on
// one shared join estimator: ~75% single-object inserts, ~20% estimates,
// ~5% snapshots, issued from parallel clients through the full HTTP
// handler stack. BenchmarkServeMixedWAL (persist_test.go) runs the same
// workload with durability enabled.
func BenchmarkServeMixed(b *testing.B) {
	srv := NewServer()
	// Admission control stays ON with generous gates: the benchmark
	// gates the cost of the admission checks themselves (token bucket +
	// class gates on every request), not shedding.
	srv.EnableAdmission(AdmitOptions{MaxInflightReads: 1 << 20, MaxInflightWrites: 1 << 20, ShedQPS: 1e9})
	benchServeMixed(b, srv)
}

// BenchmarkServeMixedNoObservability runs the same workload straight off
// the route mux, skipping the tracing + metrics + admission middleware.
// CI gates BenchmarkServeMixed within 10% of this baseline: the
// observability layer must stay in the noise.
func BenchmarkServeMixedNoObservability(b *testing.B) {
	srv := NewServer()
	benchServeMixed(b, srv.mux)
}

// TestSnapshotGzipAndETag covers the snapshot transfer satellites:
// gzip-encoded GET (with Vary), strong ETag + If-None-Match 304, and
// gzip-encoded PUT bodies.
func TestSnapshotGzipAndETag(t *testing.T) {
	h := NewServer()
	const dom = 1 << 10
	createJoin(t, h, "j", dom)
	rng := rand.New(rand.NewSource(31))
	var rects [][][2]uint64
	for i := 0; i < 20; i++ {
		rects = append(rects, randRect(rng, dom))
	}
	mustStatus(t, do(t, h, "POST", "/v1/estimators/j/update", updateBody(t, "left", rects)), http.StatusOK)

	plain := do(t, h, "GET", "/v1/estimators/j/snapshot", nil)
	mustStatus(t, plain, http.StatusOK)
	etag := plain.Header().Get("ETag")
	if etag == "" {
		t.Fatal("snapshot GET carries no ETag")
	}

	// gzip negotiation.
	req := httptest.NewRequest("GET", "/v1/estimators/j/snapshot", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	mustStatus(t, w, http.StatusOK)
	if w.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("gzip accepted but not applied")
	}
	// Strong ETags are representation-specific: the gzip variant must
	// carry its own tag, derived from the same validator (estimator
	// incarnation and write version).
	wantGz := strings.TrimSuffix(etag, `"`) + `-gzip"`
	if got := w.Header().Get("ETag"); got != wantGz {
		t.Fatalf("gzip ETag %q, want %q", got, wantGz)
	}
	// Conditional GET with the gzip validator also revalidates.
	reqGz := httptest.NewRequest("GET", "/v1/estimators/j/snapshot", nil)
	reqGz.Header.Set("Accept-Encoding", "gzip")
	reqGz.Header.Set("If-None-Match", wantGz)
	wGz := httptest.NewRecorder()
	h.ServeHTTP(wGz, reqGz)
	mustStatus(t, wGz, http.StatusNotModified)
	gz, err := gzip.NewReader(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unzipped, plain.Body.Bytes()) {
		t.Fatal("gzip body does not decompress to the plain snapshot")
	}
	if len(w.Body.Bytes()) >= len(unzipped) {
		t.Errorf("gzip did not shrink the snapshot (%d >= %d)", len(w.Body.Bytes()), len(unzipped))
	}

	// A node-to-node read sends Accept-Encoding: gzip (Go's transport
	// does by default) but gets the identity body and validator, and
	// revalidates against the identity validator.
	reqInt := httptest.NewRequest("GET", "/v1/estimators/j/snapshot", nil)
	reqInt.Header.Set("Accept-Encoding", "gzip")
	reqInt.Header.Set(headerInternal, "1")
	wInt := httptest.NewRecorder()
	h.ServeHTTP(wInt, reqInt)
	mustStatus(t, wInt, http.StatusOK)
	if enc := wInt.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("internal snapshot read encoded as %q, want identity", enc)
	}
	if got := wInt.Header().Get("ETag"); got != etag {
		t.Fatalf("internal snapshot ETag %q, want identity %q", got, etag)
	}
	if !bytes.Equal(wInt.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatal("internal snapshot body differs from the plain snapshot")
	}
	reqInt.Header.Set("If-None-Match", etag)
	wInt = httptest.NewRecorder()
	h.ServeHTTP(wInt, reqInt)
	mustStatus(t, wInt, http.StatusNotModified)

	// Conditional GET.
	req = httptest.NewRequest("GET", "/v1/estimators/j/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	mustStatus(t, w, http.StatusNotModified)
	if w.Body.Len() != 0 {
		t.Fatal("304 carried a body")
	}

	// A mutation changes the tag, so the conditional GET misses again.
	mustStatus(t, do(t, h, "POST", "/v1/estimators/j/update",
		updateBody(t, "left", [][][2]uint64{randRect(rng, dom)})), http.StatusOK)
	req = httptest.NewRequest("GET", "/v1/estimators/j/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	mustStatus(t, w, http.StatusOK)

	// gzip-encoded PUT round-trips to the same registry state.
	snap := w.Body.Bytes()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(snap)
	zw.Close()
	req = httptest.NewRequest("PUT", "/v1/estimators/j2/snapshot", bytes.NewReader(buf.Bytes()))
	req.Header.Set("Content-Encoding", "gzip")
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, req)
	mustStatus(t, w2, http.StatusOK)
	got := do(t, h, "GET", "/v1/estimators/j2/snapshot", nil)
	mustStatus(t, got, http.StatusOK)
	if !bytes.Equal(got.Body.Bytes(), snap) {
		t.Fatal("gzip PUT did not restore the snapshot bit-identically")
	}
	// A garbage gzip body is a client error, not a server crash.
	req = httptest.NewRequest("PUT", "/v1/estimators/j3/snapshot", bytes.NewReader([]byte("not gzip")))
	req.Header.Set("Content-Encoding", "gzip")
	w3 := httptest.NewRecorder()
	h.ServeHTTP(w3, req)
	mustStatus(t, w3, http.StatusBadRequest)
}

// TestEstimateBatchPerQueryErrors: one malformed query inside a batch
// yields a per-result error while every valid query is still answered
// (fan-out aggregation depends on it).
func TestEstimateBatchPerQueryErrors(t *testing.T) {
	h := NewServer()
	const dom = 1 << 10
	body, _ := json.Marshal(createRequest{Name: "r", Kind: "range",
		Config: configRequest{Dims: 1, DomainSize: dom, Seed: 7, Instances: 64, Groups: 4}})
	mustStatus(t, do(t, h, "POST", "/v1/estimators", body), http.StatusCreated)
	rng := rand.New(rand.NewSource(13))
	var rects [][][2]uint64
	for i := 0; i < 30; i++ {
		lo := rng.Uint64() % (dom - 2)
		rects = append(rects, [][2]uint64{{lo, lo + 1 + rng.Uint64()%(dom-lo-1)}})
	}
	mustStatus(t, do(t, h, "POST", "/v1/estimators/r/update", updateBody(t, "", rects)), http.StatusOK)

	batch, _ := json.Marshal(estimateRequest{Queries: [][][2]uint64{
		{{10, 200}},          // valid
		{},                   // empty
		{{10, 20}, {30, 40}}, // wrong dimensionality
		{{50, dom + 5}},      // outside the domain
		{{30, 20}},           // inverted interval
		{{100, 900}},         // valid
	}})
	w := do(t, h, "POST", "/v1/estimators/r/estimate", batch)
	mustStatus(t, w, http.StatusOK)
	var resp batchEstimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(resp.Results))
	}
	for _, i := range []int{1, 2, 3, 4} {
		if resp.Results[i] == nil || resp.Results[i].Error == "" {
			t.Errorf("malformed query %d carries no error: %+v", i, resp.Results[i])
		}
	}
	for _, i := range []int{0, 5} {
		if resp.Results[i] == nil || resp.Results[i].Error != "" {
			t.Fatalf("valid query %d was not answered: %+v", i, resp.Results[i])
		}
	}
	// The per-query answers match individually issued queries.
	for qi, q := range [][][2]uint64{{{10, 200}}, {{100, 900}}} {
		single, _ := json.Marshal(estimateRequest{Query: q})
		sw := do(t, h, "POST", "/v1/estimators/r/estimate", single)
		mustStatus(t, sw, http.StatusOK)
		var sr estimateResponse
		if err := json.Unmarshal(sw.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		batchIdx := []int{0, 5}[qi]
		if sr.Value != resp.Results[batchIdx].Value {
			t.Errorf("batch result %d (%v) differs from the single query (%v)", batchIdx, resp.Results[batchIdx].Value, sr.Value)
		}
	}
}
