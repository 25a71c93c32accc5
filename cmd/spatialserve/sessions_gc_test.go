package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// TestSessionGCExpiresIdleDurably expires an idle session while an
// active one rides along, then crashes and recovers: the drop must be
// durable, the active session's dedup window must stay closed across
// both expiry and recovery, and the estimator contents must be
// untouched.
func TestSessionGCExpiresIdleDurably(t *testing.T) {
	n := startStreamNode(t)
	createStreamJoin(t, n.ht.URL)
	s := n.cur.Load()
	rng := rand.New(rand.NewSource(41))
	var history []spatial.UpdateRecord

	idleRecs := streamBatch(rng, 8, &history)
	liveRecs := streamBatch(rng, 8, &history)
	ingestOnce(t, s, "gc-idle", 1, idleRecs)
	ingestOnce(t, s, "gc-live", 1, liveRecs)
	ref := refJoin(t)
	applyRef(t, ref, idleRecs)
	applyRef(t, ref, liveRecs)

	// A checkpoint captures both marks; the expiry below lands in the WAL
	// suffix, so recovery exercises restore-then-drop.
	mustDo(t, "POST", n.ht.URL+"/admin/checkpoint", nil, http.StatusOK)

	backdate(t, s, "gc-idle", 2*time.Hour)
	if dropped := s.gcSessions(time.Now(), time.Hour, 0, 0); dropped != 1 {
		t.Fatalf("gc dropped %d marks, want 1", dropped)
	}
	if got := s.sessions.peek("gc-idle", "j"); got != 0 {
		t.Fatalf("expired mark still present at seq %d", got)
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
	if got := s.sessions.peek("gc-idle", "j"); got != 0 {
		t.Fatalf("expired mark resurrected by recovery at seq %d", got)
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
	if dropped := s.gcSessions(time.Now(), time.Hour, 0, 0); dropped != 0 {
		t.Fatalf("gc dropped %d marks; pinned and fresh marks must survive", dropped)
	}
	if got := s.sessions.peek("gc-pin", "j"); got != 1 {
		t.Fatalf("pinned mark expired (seq %d)", got)
	}

	s.sessions.unpin("gc-pin", "j")
	// The seq assertion above peeked the mark, which counts as activity;
	// rewind the idle clock again before the second sweep.
	backdate(t, s, "gc-pin", 48*time.Hour)
	if dropped := s.gcSessions(time.Now(), time.Hour, 0, 0); dropped != 1 {
		t.Fatalf("gc after unpin dropped %d marks, want 1", dropped)
	}
	if got := s.sessions.peek("gc-fresh", "j"); got != 1 {
		t.Fatalf("fresh mark expired (seq %d)", got)
	}
}

// TestSessionGCLRUPressure evicts the least-recently-touched
// Idempotency-Key marks when the table exceeds the high-water mark,
// draining to the low-water mark oldest-first.
func TestSessionGCLRUPressure(t *testing.T) {
	s := NewServer()
	ht := httptest.NewServer(s)
	defer ht.Close()
	createStreamJoin(t, ht.URL)
	rng := rand.New(rand.NewSource(43))
	var history []spatial.UpdateRecord
	var sessions []string
	for i := 0; i < 10; i++ {
		sessions = append(sessions, fmt.Sprintf("%ss%d", idemSessionPrefix, i))
	}
	for i, sess := range sessions {
		ingestOnce(t, s, sess, 1, streamBatch(rng, 2, &history))
		backdate(t, s, sess, time.Duration(len(sessions)-i)*time.Minute)
	}
	// TTL disabled (0): only the pressure rule fires. 10 entries > high
	// water 8, drain to 5, oldest first.
	if dropped := s.gcSessions(time.Now(), 0, 8, 5); dropped != 5 {
		t.Fatalf("pressure eviction dropped %d marks, want 5", dropped)
	}
	for i, sess := range sessions {
		got := s.sessions.peek(sess, "j")
		if i < 5 && got != 0 {
			t.Errorf("old mark %s survived pressure eviction (seq %d)", sess, got)
		}
		if i >= 5 && got != 1 {
			t.Errorf("recent mark %s evicted (seq %d)", sess, got)
		}
	}
}

// TestSessionGCPressureSparesStreamMarks runs pressure eviction at the
// real water marks over a table of fresh Idempotency-Key marks and one
// idle stream mark: the stream mark must survive, because its client
// resumes from the HelloAck watermark and would re-apply an acked batch
// the server forgot. A full table still refuses a new session
// retryably instead of evicting one.
func TestSessionGCPressureSparesStreamMarks(t *testing.T) {
	s := NewServer()
	ht := httptest.NewServer(s)
	defer ht.Close()
	createStreamJoin(t, ht.URL)
	rng := rand.New(rand.NewSource(45))
	var history []spatial.UpdateRecord
	batch := streamBatch(rng, 4, &history)
	ingestOnce(t, s, "writer", 1, batch)
	backdate(t, s, "writer", 2*time.Second)
	addKeyMarks := func(from, to int) {
		for i := from; i < to; i++ {
			s.sessions.entry(fmt.Sprintf("%sk%d", idemSessionPrefix, i), "j", false).seq.Store(1)
		}
	}
	addKeyMarks(0, sessionGCHighWater+8)

	// The key marks are too fresh to evict, and the stream mark must not
	// be taken in their place.
	if dropped := s.gcSessions(time.Now(), 24*time.Hour, sessionGCHighWater, sessionGCLowWater); dropped != 0 {
		t.Fatalf("pressure eviction dropped %d marks, want 0", dropped)
	}
	resend := func(session string) (int, bool, error) {
		count, enc := encodeRecords(batch)
		return s.applyIngestBatch(context.Background(), "j", session, ingest.Batch{Seq: 1, Count: count, Records: enc})
	}
	if applied, deduped, err := resend("writer"); err != nil || applied != 0 || !deduped {
		t.Fatalf("resent batch 1 after pressure eviction: applied %d, deduped %v, err %v; want a dedup", applied, deduped, err)
	}

	addKeyMarks(sessionGCHighWater+8, maxSessionEntries)
	if _, _, err := resend("writer-2"); !errors.Is(err, errSessionTableFull) {
		t.Fatalf("new session into a full table: %v, want %v", err, errSessionTableFull)
	}
	if _, deduped, err := resend("writer"); err != nil || !deduped {
		t.Fatalf("resend into a full table: deduped %v, err %v; want a dedup", deduped, err)
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

// TestSessionGCStartStop covers the background loop lifecycle: starting
// with a TTL, double Close, and the disabled (ttl=0) case.
func TestSessionGCStartStop(t *testing.T) {
	s := NewServer()
	s.StartSessionGC(0)
	if s.gcStop != nil {
		t.Fatal("ttl=0 must not start a GC loop")
	}
	s.StartSessionGC(time.Hour)
	if s.gcStop == nil {
		t.Fatal("GC loop not started")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
