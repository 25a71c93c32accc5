package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spatial "repro"
	"repro/internal/ingest"
)

// Session-mark GC tests: expiry must never reopen a live session's dedup
// window - active and attached sessions are exempt - and every drop must
// be durable, so crash recovery converges on exactly the live server's
// mark state.

// encodeRecords encodes records into the wire/WAL concatenated form.
func encodeRecords(recs []spatial.UpdateRecord) (uint64, []byte) {
	var enc []byte
	for _, r := range recs {
		enc = r.AppendBinary(enc)
	}
	return uint64(len(recs)), enc
}

// ingestOnce applies one batch for (session, seq) and requires it to be
// freshly applied (not deduped).
func ingestOnce(t *testing.T, s *Server, session string, seq uint64, recs []spatial.UpdateRecord) {
	t.Helper()
	count, enc := encodeRecords(recs)
	applied, deduped, err := s.applyIngestBatch(context.Background(), "j", session, ingest.Batch{Seq: seq, Count: count, Records: enc})
	if err != nil {
		t.Fatal(err)
	}
	if deduped || applied != len(recs) {
		t.Fatalf("batch (%s, %d): applied %d deduped %v, want fresh apply of %d", session, seq, applied, deduped, len(recs))
	}
}

// backdate rewinds a mark's idle clock.
func backdate(t *testing.T, s *Server, session string, age time.Duration) {
	t.Helper()
	ent := s.sessions.lockEntry(session, "j", false)
	defer ent.mu.Unlock()
	ent.last.Store(time.Now().Add(-age).UnixNano())
}

// TestSessionGCExpiresIdleDurably expires an idle session and an
// Idempotency-Key mark past its window while an active session rides
// along, then crashes and recovers: the drops must be durable, the
// active session's dedup window must stay closed across both expiry and
// recovery, and the estimator contents must be untouched.
func TestSessionGCExpiresIdleDurably(t *testing.T) {
	n := startStreamNode(t)
	createStreamJoin(t, n.ht.URL)
	s := n.cur.Load()
	rng := rand.New(rand.NewSource(41))
	var history []spatial.UpdateRecord

	idleRecs := streamBatch(rng, 8, &history)
	liveRecs := streamBatch(rng, 8, &history)
	keyRecs := streamBatch(rng, 1, &history)
	ingestOnce(t, s, "gc-idle", 1, idleRecs)
	ingestOnce(t, s, "gc-live", 1, liveRecs)
	ingestOnce(t, s, idemSessionPrefix+"gc-key", 1, keyRecs)
	ref := refJoin(t)
	applyRef(t, ref, idleRecs)
	applyRef(t, ref, liveRecs)
	applyRef(t, ref, keyRecs)

	// A checkpoint captures every mark; the expiry below lands in the WAL
	// suffix, so recovery exercises restore-then-drop.
	mustDo(t, "POST", n.ht.URL+"/admin/checkpoint", nil, http.StatusOK)

	// Under a 24 h stream TTL the key expires by its window, while a
	// stream mark idle just as long survives.
	backdate(t, s, "gc-idle", 25*time.Hour)
	backdate(t, s, "gc-live", 2*idemWindow)
	backdate(t, s, idemSessionPrefix+"gc-key", 2*idemWindow)
	if dropped := s.gcSessions(time.Now(), 24*time.Hour); dropped != 2 {
		t.Fatalf("gc dropped %d marks, want 2", dropped)
	}
	for _, session := range []string{"gc-idle", idemSessionPrefix + "gc-key"} {
		if got := s.sessions.peek(session, "j"); got != 0 {
			t.Fatalf("expired mark %s still present at seq %d", session, got)
		}
	}
	if got := s.sessions.peek("gc-live", "j"); got != 1 {
		t.Fatalf("active mark lost: seq %d, want 1", got)
	}
	// The active session's window stays closed: a retry is deduped, not
	// re-applied.
	count, enc := encodeRecords(liveRecs)
	if _, deduped, err := s.applyIngestBatch(context.Background(), "j", "gc-live", ingest.Batch{Seq: 1, Count: count, Records: enc}); err != nil || !deduped {
		t.Fatalf("retry after gc: deduped=%v err=%v, want dedup", deduped, err)
	}
	mustMatchRef(t, n.ht.URL, ref, "after expiry")

	n.crash()
	n.boot()
	s = n.cur.Load()
	for _, session := range []string{"gc-idle", idemSessionPrefix + "gc-key"} {
		if got := s.sessions.peek(session, "j"); got != 0 {
			t.Fatalf("expired mark %s resurrected by recovery at seq %d", session, got)
		}
	}
	if got := s.sessions.peek("gc-live", "j"); got != 1 {
		t.Fatalf("recovered active mark: seq %d, want 1", got)
	}
	if _, deduped, err := s.applyIngestBatch(context.Background(), "j", "gc-live", ingest.Batch{Seq: 1, Count: count, Records: enc}); err != nil || !deduped {
		t.Fatalf("retry after recovery: deduped=%v err=%v, want dedup", deduped, err)
	}
	mustMatchRef(t, n.ht.URL, ref, "after recovery")
}

// TestSessionGCSkipsPinnedAndFresh proves the two exemptions: a mark
// with an attached stream never expires regardless of idleness, and a
// recently-touched mark never expires regardless of sweeps.
func TestSessionGCSkipsPinnedAndFresh(t *testing.T) {
	s := NewServer()
	ht := httptest.NewServer(s)
	defer ht.Close()
	createStreamJoin(t, ht.URL)
	rng := rand.New(rand.NewSource(42))
	var history []spatial.UpdateRecord
	ingestOnce(t, s, "gc-pin", 1, streamBatch(rng, 4, &history))
	ingestOnce(t, s, "gc-fresh", 1, streamBatch(rng, 4, &history))

	s.sessions.pin("gc-pin", "j")
	backdate(t, s, "gc-pin", 48*time.Hour)
	if dropped := s.gcSessions(time.Now(), time.Hour); dropped != 0 {
		t.Fatalf("gc dropped %d marks; pinned and fresh marks must survive", dropped)
	}
	if got := s.sessions.peek("gc-pin", "j"); got != 1 {
		t.Fatalf("pinned mark expired (seq %d)", got)
	}

	s.sessions.unpin("gc-pin", "j")
	// The seq assertion above peeked the mark, which counts as activity;
	// rewind the idle clock again before the second sweep.
	backdate(t, s, "gc-pin", 48*time.Hour)
	if dropped := s.gcSessions(time.Now(), time.Hour); dropped != 1 {
		t.Fatalf("gc after unpin dropped %d marks, want 1", dropped)
	}
	if got := s.sessions.peek("gc-fresh", "j"); got != 1 {
		t.Fatalf("fresh mark expired (seq %d)", got)
	}
}

// markTouched returns the last touch of a mark on "j".
func markTouched(t *testing.T, s *Server, session string) time.Time {
	t.Helper()
	ent := s.sessions.lookup(session, "j")
	if ent == nil {
		t.Fatalf("no mark for %s", session)
	}
	return time.Unix(0, ent.last.Load())
}

// TestSessionGCKeyWindow drives sweeps on a synthetic clock: an
// Idempotency-Key's mark survives every sweep inside the minute after its
// last touch, a retry restarts that minute, and the first sweep past it
// drops the mark durably, so a crash-recovered node agrees. Stream marks
// do not expire at TTL 0. At the cap a new key is refused with 429 and no
// mark is dropped to make room.
func TestSessionGCKeyWindow(t *testing.T) {
	n := startStreamNode(t)
	createStreamJoin(t, n.ht.URL)
	s := n.cur.Load()
	rng := rand.New(rand.NewSource(43))
	var history []spatial.UpdateRecord
	const key = idemSessionPrefix + "w-1"
	keyRecs := streamBatch(rng, 1, &history)
	ingestOnce(t, s, key, 1, keyRecs)
	ingestOnce(t, s, "writer", 1, streamBatch(rng, 4, &history))
	backdate(t, s, "writer", 48*time.Hour)

	touched := markTouched(t, s, key)
	for _, at := range []time.Duration{0, time.Second, idemWindow / 2, idemWindow} {
		if dropped := s.gcSessions(touched.Add(at), 0); dropped != 0 {
			t.Fatalf("sweep %v after the last touch dropped %d marks, want 0", at, dropped)
		}
	}
	// A retry is a touch: the key's minute restarts from it.
	backdate(t, s, key, idemWindow-time.Second)
	count, enc := encodeRecords(keyRecs)
	if _, deduped, err := s.applyIngestBatch(context.Background(), "j", key, ingest.Batch{Seq: 1, Count: count, Records: enc}); err != nil || !deduped {
		t.Fatalf("retry inside the window: deduped %v, err %v; want a dedup", deduped, err)
	}
	touched = markTouched(t, s, key)
	if dropped := s.gcSessions(touched.Add(idemWindow), 0); dropped != 0 {
		t.Fatalf("sweep a minute after the retry dropped %d marks, want 0", dropped)
	}
	if dropped := s.gcSessions(touched.Add(idemWindow+time.Nanosecond), 0); dropped != 1 {
		t.Fatalf("sweep past the window dropped %d marks, want 1 (the key)", dropped)
	}
	if got := s.sessions.peek(key, "j"); got != 0 {
		t.Fatalf("expired key mark still present at seq %d", got)
	}
	if got := s.sessions.peek("writer", "j"); got != 1 {
		t.Fatalf("stream mark expired at TTL 0 (seq %d)", got)
	}

	n.crash()
	n.boot()
	s = n.cur.Load()
	if got := s.sessions.peek(key, "j"); got != 0 {
		t.Fatalf("expired key mark resurrected by recovery at seq %d", got)
	}
	if got := s.sessions.peek("writer", "j"); got != 1 {
		t.Fatalf("recovered stream mark: seq %d, want 1", got)
	}

	// Fill the table with fresh keys: a new key is refused retryably, and
	// a sweep inside their window makes no room.
	for i := s.sessions.n; i < maxSessionEntries; i++ {
		s.sessions.entry(fmt.Sprintf("%sfill-%d", idemSessionPrefix, i), "j", false).seq.Store(1)
	}
	wr := randRect(rng, streamDom)
	body := mustJSON(t, updateRequest{Side: "left", Rects: [][][2]uint64{wr}})
	hdr := map[string]string{"Idempotency-Key": "w-2", "Content-Type": "application/json"}
	if resp, data := httpDo(t, "POST", n.ht.URL+"/v1/estimators/j/update", body, hdr); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("new key into a full table: status %d, body %s; want 429", resp.StatusCode, data)
	}
	if dropped := s.gcSessions(time.Now(), 0); dropped != 0 {
		t.Fatalf("sweep of a full table dropped %d marks, want 0", dropped)
	}
	if _, got := s.sessions.listSessions(time.Now(), "", ""); got != maxSessionEntries {
		t.Fatalf("full table holds %d marks, want %d", got, maxSessionEntries)
	}
}

// TestSessionGCPressureSparesStreamMarks sweeps a table of fresh
// Idempotency-Key marks and one stream mark idle longer than a key's
// window: the stream mark must survive, because its client resumes from
// the HelloAck watermark and would re-apply an acked batch the server
// forgot. A full table refuses a new session retryably instead of
// evicting one.
func TestSessionGCPressureSparesStreamMarks(t *testing.T) {
	s := NewServer()
	ht := httptest.NewServer(s)
	defer ht.Close()
	createStreamJoin(t, ht.URL)
	rng := rand.New(rand.NewSource(45))
	var history []spatial.UpdateRecord
	batch := streamBatch(rng, 4, &history)
	ingestOnce(t, s, "writer", 1, batch)
	backdate(t, s, "writer", 2*idemWindow)
	addKeyMarks := func(from, to int) {
		for i := from; i < to; i++ {
			s.sessions.entry(fmt.Sprintf("%sk%d", idemSessionPrefix, i), "j", false).seq.Store(1)
		}
	}
	addKeyMarks(0, maxSessionEntries-maxSessionEntries/8)

	// The key marks are inside their window, and the stream mark must not
	// be taken in their place.
	if dropped := s.gcSessions(time.Now(), 24*time.Hour); dropped != 0 {
		t.Fatalf("sweep dropped %d marks, want 0", dropped)
	}
	resend := func(session string) (int, bool, error) {
		count, enc := encodeRecords(batch)
		return s.applyIngestBatch(context.Background(), "j", session, ingest.Batch{Seq: 1, Count: count, Records: enc})
	}
	if applied, deduped, err := resend("writer"); err != nil || applied != 0 || !deduped {
		t.Fatalf("resent batch 1 after the sweep: applied %d, deduped %v, err %v; want a dedup", applied, deduped, err)
	}

	addKeyMarks(maxSessionEntries-maxSessionEntries/8, maxSessionEntries-1)
	if _, _, err := resend("writer-2"); !errors.Is(err, errSessionTableFull) {
		t.Fatalf("new session into a full table: %v, want %v", err, errSessionTableFull)
	}
	if _, deduped, err := resend("writer"); err != nil || !deduped {
		t.Fatalf("resend into a full table: deduped %v, err %v; want a dedup", deduped, err)
	}
}

// TestIdempotencyKeysBeyondOldCap pushes more keyed updates through one
// node inside one window than the table held before keys had a window
// of their own (65,536): none is refused, and a retry of the first key
// is still deduplicated.
func TestIdempotencyKeysBeyondOldCap(t *testing.T) {
	s := NewServer()
	defer s.Close()
	do := func(method, target string, body []byte, key string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	if rec := do("POST", "/v1/estimators", mustJSON(t, createRequest{
		Name: "k", Kind: "range", Config: configRequest{Dims: 1, DomainSize: 16, Seed: 1, Instances: 1, Groups: 1},
	}), ""); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	const keys = 65536 + 4096
	start := time.Now()
	body := mustJSON(t, updateRequest{Rects: [][][2]uint64{{{3, 9}}}})
	for i := 0; i < keys; i++ {
		if rec := do("POST", "/v1/estimators/k/update", body, fmt.Sprintf("key-%d", i)); rec.Code != http.StatusOK {
			t.Fatalf("keyed update %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	// A sweep at the end of the first key's window keeps every mark.
	if dropped := s.gcSessions(start.Add(idemWindow), 0); dropped != 0 {
		t.Fatalf("sweep inside the window dropped %d marks, want 0", dropped)
	}
	rec := do("POST", "/v1/estimators/k/update", body, "key-0")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"deduped":true`) {
		t.Fatalf("retry of the first key: status %d, body %s; want 200 with deduped", rec.Code, rec.Body)
	}
}

// TestAdminSessionsEndpoints exercises GET /admin/sessions (listing,
// filters) and DELETE /admin/sessions (drop one session's marks,
// durable across crash recovery).
func TestAdminSessionsEndpoints(t *testing.T) {
	n := startStreamNode(t)
	createStreamJoin(t, n.ht.URL)
	s := n.cur.Load()
	rng := rand.New(rand.NewSource(44))
	var history []spatial.UpdateRecord
	ingestOnce(t, s, "adm-a", 1, streamBatch(rng, 4, &history))
	ingestOnce(t, s, "adm-b", 2, streamBatch(rng, 4, &history))

	var list sessionListResponse
	if err := json.Unmarshal(mustDo(t, "GET", n.ht.URL+"/admin/sessions", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 2 || len(list.Sessions) != 2 || list.Cap != maxSessionEntries {
		t.Fatalf("listing = count %d, %d rows, cap %d; want 2, 2, %d", list.Count, len(list.Sessions), list.Cap, maxSessionEntries)
	}
	if list.Sessions[0].Session != "adm-a" || list.Sessions[0].Seq != 1 || list.Sessions[0].Attached {
		t.Fatalf("first row %+v, want adm-a at seq 1, unattached", list.Sessions[0])
	}

	if err := json.Unmarshal(mustDo(t, "GET", n.ht.URL+"/admin/sessions?session=adm-b", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].Session != "adm-b" || list.Sessions[0].Seq != 2 {
		t.Fatalf("filtered listing %+v, want just adm-b at seq 2", list.Sessions)
	}

	mustDo(t, "DELETE", n.ht.URL+"/admin/sessions", nil, http.StatusBadRequest)
	var res map[string]int
	if err := json.Unmarshal(mustDo(t, "DELETE", n.ht.URL+"/admin/sessions?session=adm-a", nil, http.StatusOK), &res); err != nil {
		t.Fatal(err)
	}
	if res["dropped"] != 1 {
		t.Fatalf("delete dropped %d marks, want 1", res["dropped"])
	}
	if got := s.sessions.peek("adm-a", "j"); got != 0 {
		t.Fatalf("dropped mark still present at seq %d", got)
	}

	n.crash()
	n.boot()
	s = n.cur.Load()
	if got := s.sessions.peek("adm-a", "j"); got != 0 {
		t.Fatalf("admin-dropped mark resurrected by recovery at seq %d", got)
	}
	if got := s.sessions.peek("adm-b", "j"); got != 2 {
		t.Fatalf("untouched mark lost by recovery: seq %d, want 2", got)
	}
}

// TestSessionGCStartStop covers the background loop lifecycle: a loop
// starts even with stream expiry off (ttl=0), since keys still expire,
// and its sweeps then drop only key marks; Close stops it, twice.
func TestSessionGCStartStop(t *testing.T) {
	s := NewServer()
	ht := httptest.NewServer(s)
	defer ht.Close()
	createStreamJoin(t, ht.URL)
	rng := rand.New(rand.NewSource(46))
	var history []spatial.UpdateRecord
	ingestOnce(t, s, "writer", 1, streamBatch(rng, 4, &history))
	ingestOnce(t, s, idemSessionPrefix+"k", 1, streamBatch(rng, 1, &history))
	backdate(t, s, "writer", 48*time.Hour)
	backdate(t, s, idemSessionPrefix+"k", 2*idemWindow)

	s.StartSessionGC(0)
	if s.gcStop == nil {
		t.Fatal("ttl=0 must still start a GC loop: keys expire")
	}
	s.StartSessionGC(time.Hour) // already running: no second loop
	if dropped := s.gcSessions(time.Now(), 0); dropped != 1 {
		t.Fatalf("ttl=0 sweep dropped %d marks, want 1 (the key)", dropped)
	}
	if got := s.sessions.peek("writer", "j"); got != 1 {
		t.Fatalf("stream mark expired at ttl=0 (seq %d)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
