package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// Snapshot validator contract: a tag is only ever served with one body.
// Tags are built from the estimator object's incarnation and write
// version, so these tests walk every way an estimator's bytes can change
// or an object can be replaced and hold every (tag, body) pair seen.

// tagLedger remembers the body each validator was served with and fails
// the test the moment one validator carries two different bodies.
type tagLedger struct {
	t    testing.TB
	mu   sync.Mutex
	seen map[string][]byte
}

func newTagLedger(t testing.TB) *tagLedger {
	return &tagLedger{t: t, seen: make(map[string][]byte)}
}

// record notes one 200 response's validator and body.
func (l *tagLedger) record(what, tag string, body []byte) {
	if tag == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.seen[tag]; ok && !bytes.Equal(prev, body) {
		l.t.Errorf("%s: validator %s served two different bodies (%d and %d bytes)", what, tag, len(prev), len(body))
	}
	l.seen[tag] = append([]byte(nil), body...)
}

// contractKinds are the four estimator kinds with an update builder each.
var contractKinds = []struct {
	create createRequest
	update func(rng *rand.Rand, op string) updateRequest
}{
	{createRequest{Name: "j", Kind: "join", Config: configRequest{Dims: 2, DomainSize: 1 << 10, Seed: 1, Instances: 64, Groups: 4}},
		func(rng *rand.Rand, op string) updateRequest {
			return updateRequest{Op: op, Side: []string{"left", "right"}[rng.Intn(2)], Rects: [][][2]uint64{randRect(rng, 1<<10)}}
		}},
	{createRequest{Name: "r", Kind: "range", Config: configRequest{Dims: 1, DomainSize: 1 << 10, Seed: 2, Instances: 64, Groups: 4}},
		func(rng *rand.Rand, op string) updateRequest {
			return updateRequest{Op: op, Rects: [][][2]uint64{randRect(rng, 1<<10)[:1]}}
		}},
	{createRequest{Name: "e", Kind: "epsjoin", Config: configRequest{Dims: 2, DomainSize: 1 << 10, Eps: 8, Seed: 3, Instances: 64, Groups: 4}},
		func(rng *rand.Rand, op string) updateRequest {
			return updateRequest{Op: op, Side: []string{"left", "right"}[rng.Intn(2)], Points: [][]uint64{{rng.Uint64() % (1 << 10), rng.Uint64() % (1 << 10)}}}
		}},
	{createRequest{Name: "c", Kind: "containment", Config: configRequest{Dims: 2, DomainSize: 1 << 10, Seed: 4, Instances: 64, Groups: 4}},
		func(rng *rand.Rand, op string) updateRequest {
			return updateRequest{Op: op, Side: []string{"inner", "outer"}[rng.Intn(2)], Rects: [][][2]uint64{randRect(rng, 1<<10)}}
		}},
}

// conditionalGet revalidates a snapshot against tag.
func conditionalGet(h http.Handler, path, tag string) *httptest.ResponseRecorder {
	r := httptest.NewRequest("GET", path, nil)
	r.Header.Set("If-None-Match", tag)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestSnapshotValidatorContract drives every estimator kind on a
// persistent server through insert, delete, /merge, snapshot PUT, delete
// plus re-create under the same name and a crash restart with WAL
// replay, then a concurrent writer racing snapshot reads. Every write
// must change the tag, an unchanged estimator must revalidate (304), and
// no tag may ever carry two bodies.
func TestSnapshotValidatorContract(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)
	ledger := newTagLedger(t)
	rng := rand.New(rand.NewSource(71))
	tags := map[string]string{}
	// observe reads every estimator's snapshot after a write, a
	// replacement or a restart, requires a new tag, records it, and
	// requires the tag to revalidate.
	observe := func(step string) {
		t.Helper()
		for _, k := range contractKinds {
			path := "/v1/estimators/" + k.create.Name + "/snapshot"
			w := do(t, s, "GET", path, nil)
			mustStatus(t, w, http.StatusOK)
			tag := w.Header().Get("ETag")
			if tag == "" || tag == tags[k.create.Name] {
				t.Fatalf("%s %s: tag %q did not change (was %q)", step, k.create.Name, tag, tags[k.create.Name])
			}
			tags[k.create.Name] = tag
			ledger.record(step+" "+k.create.Name, tag, w.Body.Bytes())
			if got := conditionalGet(s, path, tag); got.Code != http.StatusNotModified || got.Header().Get("ETag") != tag {
				t.Fatalf("%s %s: revalidation answered %d with tag %q", step, k.create.Name, got.Code, got.Header().Get("ETag"))
			}
		}
	}
	update := func(name string, req updateRequest) {
		t.Helper()
		body, _ := json.Marshal(req)
		mustStatus(t, do(t, s, "POST", "/v1/estimators/"+name+"/update", body), http.StatusOK)
	}
	create := func() {
		for _, k := range contractKinds {
			body, _ := json.Marshal(k.create)
			mustStatus(t, do(t, s, "POST", "/v1/estimators", body), http.StatusCreated)
		}
	}
	create()
	observe("create")
	var inserted []updateRequest
	for _, k := range contractKinds {
		req := k.update(rng, "insert")
		inserted = append(inserted, req)
		update(k.create.Name, req)
	}
	observe("insert")
	earlier := map[string][]byte{}
	for i, k := range contractKinds {
		earlier[k.create.Name] = snapshotOf(t, s, k.create.Name)
		update(k.create.Name, k.update(rng, "insert"))
		req := inserted[i]
		req.Op = "delete"
		update(k.create.Name, req)
	}
	observe("delete")
	for _, k := range contractKinds {
		mustStatus(t, do(t, s, "POST", "/v1/estimators/"+k.create.Name+"/merge", earlier[k.create.Name]), http.StatusOK)
	}
	observe("merge")
	for _, k := range contractKinds {
		mustStatus(t, do(t, s, "PUT", "/v1/estimators/"+k.create.Name+"/snapshot", earlier[k.create.Name]), http.StatusOK)
	}
	observe("snapshot put")
	// Re-created objects start again at their first write version: only
	// the incarnation keeps their tags apart from the first objects'.
	for _, k := range contractKinds {
		mustStatus(t, do(t, s, "DELETE", "/v1/estimators/"+k.create.Name, nil), http.StatusOK)
	}
	create()
	observe("re-create")
	for _, k := range contractKinds {
		update(k.create.Name, k.update(rng, "insert"))
	}
	observe("insert after re-create")

	crash(t, s)
	s = openPersistent(t, dir)
	defer s.Close()
	observe("restart")
	for _, k := range contractKinds {
		update(k.create.Name, k.update(rng, "insert"))
	}
	observe("insert after restart")

	// A writer races snapshot reads: a marshal that a write overlapped
	// must go out without a tag rather than under one.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(72))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := contractKinds[i%len(contractKinds)]
			body, _ := json.Marshal(k.update(rng, "insert"))
			if w := do(nil, s, "POST", "/v1/estimators/"+k.create.Name+"/update", body); w.Code != http.StatusOK {
				t.Errorf("concurrent update: %d", w.Code)
				return
			}
		}
	}()
	for i := 0; i < 800; i++ {
		k := contractKinds[i/2%len(contractKinds)]
		w := do(t, s, "GET", "/v1/estimators/"+k.create.Name+"/snapshot", nil)
		mustStatus(t, w, http.StatusOK)
		ledger.record("concurrent "+k.create.Name, w.Header().Get("ETag"), w.Body.Bytes())
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotRevalidationAllocs: a matching conditional GET answers 304
// without marshaling, so the snapshot handler allocates less than a
// tenth of the snapshot it validates (a marshal alone would allocate the
// whole snapshot). Requests are built beforehand and served straight off
// the route mux, so only the handler's own allocations count.
func TestSnapshotRevalidationAllocs(t *testing.T) {
	h := NewServer()
	body, _ := json.Marshal(createRequest{Name: "big", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: 1 << 12, Seed: 5, Instances: 512, Groups: 8}})
	mustStatus(t, do(t, h, "POST", "/v1/estimators", body), http.StatusCreated)
	rng := rand.New(rand.NewSource(5))
	var rects [][][2]uint64
	for i := 0; i < 16; i++ {
		rects = append(rects, randRect(rng, 1<<12))
	}
	mustStatus(t, do(t, h, "POST", "/v1/estimators/big/update", updateBody(t, "left", rects)), http.StatusOK)
	full := do(t, h, "GET", "/v1/estimators/big/snapshot", nil)
	mustStatus(t, full, http.StatusOK)
	tag, size := full.Header().Get("ETag"), full.Body.Len()
	const runs = 200
	reqs := make([]*http.Request, runs+1)
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", "/v1/estimators/big/snapshot", nil)
		reqs[i].Header.Set("If-None-Match", tag)
		recs[i] = httptest.NewRecorder()
	}
	h.mux.ServeHTTP(recs[runs], reqs[runs])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		h.mux.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for _, w := range recs {
		mustStatus(t, w, http.StatusNotModified)
	}
	perReq := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("conditional GET: %d B allocated per request against a %d B snapshot", perReq, size)
	if perReq*10 >= uint64(size) {
		t.Fatalf("a 304 allocates %d B, not under a tenth of the %d B snapshot: it marshals", perReq, size)
	}
}

// TestGroupedResponseRejectsDamage: every truncation of a grouped read's
// response, a record count the caller did not ask for, and tags that
// could not ride back in the validator header are refused.
func TestGroupedResponseRejectsDamage(t *testing.T) {
	recs := []partRecord{
		{state: partSnapshot, tag: `"abc.1.2"`, data: []byte("SPE1 partition zero")},
		{state: partUnchanged},
		{state: partNotHere},
		{state: partSnapshot, data: []byte("raced: no tag")},
	}
	enc := appendParts(nil, recs)
	got, err := decodeParts(enc, len(recs))
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip: %v, %+v", err, got)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeParts(enc[:cut], len(recs)); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
		}
	}
	if _, err := decodeParts(enc, len(recs)-1); err == nil {
		t.Fatal("record count mismatch accepted")
	}
	for _, tag := range []string{`"a,b"`, "a b", "\x00"} {
		if _, err := decodeParts(appendParts(nil, []partRecord{{state: partSnapshot, tag: tag}}), 1); err == nil {
			t.Fatalf("tag %q accepted", tag)
		}
	}
}

// FuzzGroupedSnapshotResponse feeds hostile bytes to the grouped read's
// response decoder: it must never panic, must refuse every truncation of
// what the encoder writes, and must round-trip both the encoder's output
// and whatever it accepts.
func FuzzGroupedSnapshotResponse(f *testing.F) {
	f.Add(appendParts(nil, []partRecord{{state: partSnapshot, tag: `"t.1.2"`, data: []byte("snap")}, {state: partUnchanged}, {state: partNotHere}}), uint8(3))
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{1, 1, 0x80}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(200))
	f.Fuzz(func(t *testing.T, body []byte, n uint8) {
		if recs, err := decodeParts(body, int(n)); err == nil {
			again, err := decodeParts(appendParts(nil, recs), int(n))
			if err != nil || !reflect.DeepEqual(again, recs) {
				t.Fatalf("accepted body does not round-trip: %v", err)
			}
		}
		// Build n records from the input and round-trip them.
		recs := make([]partRecord, n)
		for i := range recs {
			chunk := body[min(len(body), i):min(len(body), i+int(n))]
			recs[i].state = byte(i % 3)
			if recs[i].state == partSnapshot {
				recs[i].tag = hex.EncodeToString(chunk[:min(len(chunk), 8)])
				recs[i].data = append([]byte(nil), chunk...)
			}
		}
		enc := appendParts(nil, recs)
		got, err := decodeParts(enc, int(n))
		if err != nil || !reflect.DeepEqual(got, recs) {
			t.Fatalf("encoder output does not round-trip: %v", err)
		}
		for _, cut := range []int{0, len(enc) / 2, len(enc) - 1} {
			if _, err := decodeParts(enc[:cut], int(n)); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
			}
		}
	})
}

// FuzzGroupedReadRequest feeds hostile bytes to the grouped read's
// request decoder: it must never panic, must size nothing past its
// bounds, and every request it accepts must re-encode to its own bytes.
func FuzzGroupedReadRequest(f *testing.F) {
	f.Add(appendReadRequest(nil, &readRequest{base: "acme/j", parts: []int{0, 3, 5}, inms: []string{`"t.1.2"`, "", `"t.1.9"`},
		traceparent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01", requestID: "rid-1"}))
	f.Add(appendReadRequest(nil, &readRequest{base: "j", parts: []int{1 << 20}, inms: []string{""}}))
	f.Add([]byte{1, 'j', 0x80, 0x00, 0, 0, 0, 0})
	f.Add([]byte{1, 'j', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := decodeReadRequest(body)
		if err != nil {
			return
		}
		if len(q.parts) == 0 || len(q.parts) > maxGroupParts || len(q.inms) != len(q.parts) {
			t.Fatalf("accepted %d partitions and %d validators", len(q.parts), len(q.inms))
		}
		for i, inm := range q.inms {
			if len(inm) > maxTagLen || !validTag([]byte(inm)) || q.parts[i] < 0 {
				t.Fatalf("accepted partition %d, validator %q", q.parts[i], inm)
			}
		}
		if len(q.traceparent) > maxTagLen || len(q.requestID) > maxTagLen {
			t.Fatalf("accepted a %d-byte traceparent and a %d-byte request ID", len(q.traceparent), len(q.requestID))
		}
		if again := appendReadRequest(nil, &q); !bytes.Equal(again, body) {
			t.Fatalf("accepted request re-encodes to %x, not %x", again, body)
		}
	})
}

// TestGroupedReadRequestRejectsDamage: every truncation of a request,
// an empty partition list, a non-minimal length and a validator that
// could not join a cluster-wide tag are refused.
func TestGroupedReadRequestRejectsDamage(t *testing.T) {
	q := readRequest{base: "acme/j", parts: []int{2, 0}, inms: []string{`"t.1.2"`, ""}, traceparent: "tp", requestID: "rid"}
	enc := appendReadRequest(nil, &q)
	got, err := decodeReadRequest(enc)
	if err != nil || !reflect.DeepEqual(got, q) {
		t.Fatalf("round trip: %v, %+v", err, got)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeReadRequest(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
		}
	}
	bad := []readRequest{
		{base: "j"},
		{base: "", parts: []int{0}, inms: []string{""}},
		{base: "j", parts: []int{0}, inms: []string{`"a,b"`}},
	}
	for _, b := range bad {
		if _, err := decodeReadRequest(appendReadRequest(nil, &b)); err == nil {
			t.Fatalf("request %+v accepted", b)
		}
	}
	if _, err := decodeReadRequest([]byte{0x81, 0x00, 'j', 1, 0, 0, 0, 0}); err == nil {
		t.Fatal("a non-minimal length accepted")
	}
}
