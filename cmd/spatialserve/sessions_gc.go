package main

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Session-mark garbage collection. A periodic sweep drops every unpinned
// mark idle past its window, counted from its last touch (create, apply,
// dedup, resume peek):
//
//   - an Idempotency-Key's mark ("idem:<key>", seq 1), held by the owners
//     of the update's partitions only, lives idemWindow: the clients'
//     retry horizon;
//   - a stream mark lives -session-ttl (0: forever); its client
//     resumes from the HelloAck watermark, so it must outlive any
//     reconnect.
//
// Nothing is evicted early: a full table refuses new keys and sessions
// retryably (errSessionTableFull). With each key held for idemWindow
// plus at most one sweep period, maxSessionEntries marks cover about
// 1,700 new keys a second per node.
//
// Every drop of a durable mark is WAL-logged (walOpSessionDrop) before
// the mark leaves the table, so crash recovery and replicas converge on
// exactly the live server's marks. A router's stream marks (on base
// estimator names) are never logged, so neither are their drops.

const (
	// idemWindow is how long an Idempotency-Key's mark outlives its last
	// touch.
	idemWindow = time.Minute
	// maxSweepPeriod bounds the sweep period.
	maxSweepPeriod = 15 * time.Second
)

// markWindow returns how long a mark of session outlives its last touch
// under stream TTL ttl (0: forever).
func markWindow(session string, ttl time.Duration) time.Duration {
	if strings.HasPrefix(session, idemSessionPrefix) {
		return idemWindow
	}
	return ttl
}

// gcCandidates collects the unpinned marks idle past their window at
// time now, under the table lock. It also copies each key's marks into a
// map sized for them: a Go map keeps the capacity its churn grew it to,
// and under a steady keyed load, where every sweep drops a window's
// oldest keys, a key's map grows by half within minutes though it holds
// no more marks.
func (t *sessionTable) gcCandidates(now time.Time, ttl time.Duration) []sessionKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []sessionKey
	for key, marks := range t.byKey {
		fresh := make(map[string]*sessionEntry, len(marks))
		for session, e := range marks {
			fresh[session] = e
			k := sessionKey{session, key}
			window := markWindow(session, ttl)
			if window > 0 && t.pinned[k] == 0 && now.Sub(time.Unix(0, e.last.Load())) > window {
				out = append(out, k)
			}
		}
		t.byKey[key] = fresh
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
		t.removeMark(session, key)
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
// sweeps on a synthetic clock; the background loop passes the real time
// and the configured stream TTL.
func (s *Server) gcSessions(now time.Time, ttl time.Duration) int {
	dropped := 0
	for _, k := range s.sessions.gcCandidates(now, ttl) {
		ok, err := s.dropSessionMark(k.session, k.key, markWindow(k.session, ttl), now)
		if err != nil {
			// A WAL append failure keeps the mark: dedup state is never
			// discarded without the drop being durable first.
			logfServer("spatialserve: session gc: dropping (%q, %q): %v", k.session, k.key, err)
			continue
		}
		if ok {
			dropped++
		}
	}
	return dropped
}

// StartSessionGC starts the background sweep that expires Idempotency-Key
// marks after idemWindow and stream marks after ttl (0 keeps them); its
// period is ttl/4, clamped to [1 s, maxSweepPeriod]. Replicas skip
// sweeping while read-only - their mark drops arrive through the
// leader's WAL - and pick it up after promotion. Close stops the loop.
func (s *Server) StartSessionGC(ttl time.Duration) {
	if s.gcStop != nil {
		return
	}
	period := maxSweepPeriod
	if ttl > 0 {
		period = min(period, max(ttl/4, time.Second))
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
				s.gcSessions(time.Now(), ttl)
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
