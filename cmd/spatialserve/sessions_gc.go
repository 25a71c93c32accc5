package main

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Session-mark garbage collection.
//
// Streaming-ingest watermarks (stream.go) are tiny but immortal by
// default, and the table caps at maxSessionEntries - a long-lived
// deployment cycling through session IDs would eventually refuse new
// sessions. The GC expires marks that are safe to forget:
//
//   - TTL expiry: a mark idle longer than the configured TTL with no
//     attached stream. The dedup window only matters for retries of
//     already-acked batches, and a live client retries within its
//     reconnect backoff (seconds); a mark untouched for a TTL measured
//     in hours has no outstanding retry left to dedup.
//   - LRU pressure eviction: when the table nears its cap, the
//     least-recently-touched Idempotency-Key marks are evicted (still
//     never a mark touched within the last sessionLRUMinIdle) so new
//     keys keep working instead of hitting the cap wall. Stream marks
//     are never evicted under pressure: a stream client resumes from the
//     HelloAck watermark, so a forgotten mark would re-apply its acked
//     batches. They expire by TTL only, and a table full of them refuses
//     new sessions retryably (errSessionTableFull).
//
// Every drop of a durable mark is WAL-logged (walOpSessionDrop) BEFORE
// the mark leaves the table, so crash recovery and WAL-shipped replicas
// converge on exactly the live server's mark state - expiry can never
// make a recovered node remember (or forget) more than the live one
// did. Non-durable routing marks on cluster routing nodes are dropped
// without logging; they never survive a restart anyway.

const (
	// sessionGCHighWater is the table size that triggers LRU pressure
	// eviction (7/8 of the cap).
	sessionGCHighWater = maxSessionEntries - maxSessionEntries/8
	// sessionGCLowWater is the size pressure eviction drains down to
	// (3/4 of the cap).
	sessionGCLowWater = maxSessionEntries - maxSessionEntries/4
	// sessionLRUMinIdle is the floor under which pressure eviction never
	// touches a mark: an entry active within the last second is plausibly
	// mid-stream whatever the table pressure.
	sessionLRUMinIdle = time.Second
)

// gcCandidate is one mark the sweep wants to drop, with the idle bound
// dropSessionMark re-verifies under the entry lock.
type gcCandidate struct {
	key     sessionKey
	minIdle time.Duration
}

// gcCandidates collects this sweep's drop candidates under the table
// lock: TTL-expired unpinned marks, plus - when the table still exceeds
// lruHigh - the least-recently-touched unpinned Idempotency-Key marks,
// down to lruLow or until none is left.
func (t *sessionTable) gcCandidates(now time.Time, ttl time.Duration, lruHigh, lruLow int) []gcCandidate {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []gcCandidate
	type aged struct {
		key  sessionKey
		last int64
	}
	var keyed []aged
	for key, marks := range t.byKey {
		for session, e := range marks {
			k := sessionKey{session, key}
			if t.pinned[k] > 0 {
				continue
			}
			last := e.last.Load()
			if ttl > 0 && now.Sub(time.Unix(0, last)) > ttl {
				out = append(out, gcCandidate{key: k, minIdle: ttl})
				continue
			}
			if strings.HasPrefix(session, idemSessionPrefix) {
				keyed = append(keyed, aged{k, last})
			}
		}
	}
	if remain := t.n - len(out); remain > lruHigh && lruHigh > 0 {
		sort.Slice(keyed, func(i, j int) bool { return keyed[i].last < keyed[j].last })
		for _, a := range keyed {
			if remain <= lruLow {
				break
			}
			out = append(out, gcCandidate{key: a.key, minIdle: sessionLRUMinIdle})
			remain--
		}
	}
	return out
}

// dropSessionMark removes one live watermark. The drop is re-validated
// under the entry lock (still unpinned, still idle past minIdle - a
// racing batch revives the mark and aborts the drop) and, when the key is
// durable here, WAL-logged and removed in one gate hold, so a cut (a
// checkpoint's or a move's) sees both or neither. The marks of a shard
// this node does not own are not its to drop: they arrive from the
// shard's owner, drops included (handleMove). Returns whether the mark
// was dropped.
func (s *Server) dropSessionMark(session, key string, minIdle time.Duration, now time.Time) (bool, error) {
	t := &s.sessions
	ent := t.lookup(session, key)
	if ent == nil || t.isPinned(session, key) || s.notOwner(key) {
		return false, nil
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.dropped.Load() {
		return false, nil
	}
	if minIdle > 0 && now.Sub(time.Unix(0, ent.last.Load())) < minIdle {
		return false, nil
	}
	est, bound := s.lookup(key)
	drop := func() error {
		if bound && s.persist != nil {
			if err := s.persist.logSessionDrop(context.Background(), key, session); err != nil {
				return err
			}
		}
		ent.dropped.Store(true)
		t.remove(session, key)
		return nil
	}
	var err error
	if bound {
		err = s.withEstimator(key, est, drop)
	} else {
		err = drop()
	}
	if errors.Is(err, errStaleBinding) {
		// The binding changed under us; the delete/replace path owns this
		// key's marks now.
		return false, nil
	}
	return err == nil, err
}

// gcSessions runs one sweep at time now and returns how many marks were
// dropped. Exposed with explicit parameters so tests drive deterministic
// sweeps; the background loop passes the configured TTL and the real
// water marks.
func (s *Server) gcSessions(now time.Time, ttl time.Duration, lruHigh, lruLow int) int {
	dropped := 0
	for _, c := range s.sessions.gcCandidates(now, ttl, lruHigh, lruLow) {
		ok, err := s.dropSessionMark(c.key.session, c.key.key, c.minIdle, now)
		if err != nil {
			// A WAL append failure keeps the mark: dedup state is never
			// discarded without the drop being durable first.
			logfServer("spatialserve: session gc: dropping (%q, %q): %v", c.key.session, c.key.key, err)
			continue
		}
		if ok {
			dropped++
		}
	}
	return dropped
}

// StartSessionGC starts the background sweep expiring idle session
// marks after ttl (and LRU-evicting Idempotency-Key marks under table
// pressure). Replicas
// skip sweeping while read-only - their mark drops arrive through the
// leader's WAL - and pick it up after promotion. Close stops the loop.
func (s *Server) StartSessionGC(ttl time.Duration) {
	if ttl <= 0 || s.gcStop != nil {
		return
	}
	period := ttl / 4
	if period > time.Minute {
		period = time.Minute
	}
	if period < time.Second {
		period = time.Second
	}
	s.gcStop = make(chan struct{})
	s.gcDone = make(chan struct{})
	go func() {
		defer close(s.gcDone)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.gcStop:
				return
			case <-tick.C:
				if s.replicaReadOnly() {
					continue
				}
				s.gcSessions(time.Now(), ttl, sessionGCHighWater, sessionGCLowWater)
			}
		}
	}()
}

// stopSessionGC stops the sweep loop (idempotent; part of Close).
func (s *Server) stopSessionGC() {
	if s.gcStop == nil {
		return
	}
	s.gcOnce.Do(func() {
		close(s.gcStop)
		<-s.gcDone
	})
}

// ---- the admin endpoints ----

// sessionInfo is the admin view of one ingest watermark.
type sessionInfo struct {
	Session     string  `json:"session"`
	Estimator   string  `json:"estimator"`
	Seq         uint64  `json:"seq"`
	IdleSeconds float64 `json:"idleSeconds"`
	Attached    bool    `json:"attached"`
}

// sessionListResponse is the GET /admin/sessions body.
type sessionListResponse struct {
	Cap      int           `json:"cap"`
	Count    int           `json:"count"`
	Sessions []sessionInfo `json:"sessions"`
}

// listSessions snapshots the table for the admin endpoint, optionally
// filtered by session and/or estimator key.
func (t *sessionTable) listSessions(now time.Time, session, key string) ([]sessionInfo, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]sessionInfo, 0, t.n)
	for k, marks := range t.byKey {
		if key != "" && k != key {
			continue
		}
		for sess, e := range marks {
			if session != "" && sess != session {
				continue
			}
			out = append(out, sessionInfo{
				Session:     sess,
				Estimator:   k,
				Seq:         e.seq.Load(),
				IdleSeconds: now.Sub(time.Unix(0, e.last.Load())).Seconds(),
				Attached:    t.pinned[sessionKey{sess, k}] > 0,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Estimator != out[j].Estimator {
			return out[i].Estimator < out[j].Estimator
		}
		return out[i].Session < out[j].Session
	})
	return out, t.n
}

// handleSessionList serves GET /admin/sessions: every live watermark
// with its sequence, idle time and stream attachment, filterable with
// ?session= and ?estimator=.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	infos, total := s.sessions.listSessions(time.Now(), q.Get("session"), q.Get("estimator"))
	writeJSON(w, http.StatusOK, sessionListResponse{
		Cap:      maxSessionEntries,
		Count:    total,
		Sessions: infos,
	})
}

// handleSessionDelete serves DELETE /admin/sessions?session=S[&estimator=E]:
// drops the session's watermarks (all estimator keys, or just E),
// WAL-logged like GC expiry. Marks with an attached stream are skipped -
// dropping a live stream's dedup state would reopen its window.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	q := r.URL.Query()
	session := q.Get("session")
	if session == "" {
		writeError(w, http.StatusBadRequest, "session query parameter is required")
		return
	}
	infos, _ := s.sessions.listSessions(time.Now(), session, q.Get("estimator"))
	dropped, skipped := 0, 0
	for _, in := range infos {
		ok, err := s.dropSessionMark(in.Session, in.Estimator, 0, time.Time{})
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if ok {
			dropped++
		} else {
			skipped++
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"dropped": dropped, "skipped": skipped})
}
