package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/ingestclient"
	"repro/internal/trace"
)

// The workload side of the harness: targets (tenant x estimator kind),
// the wire shapes shared with spatialserve, and the three worker types -
// JSON update writers, streaming-ingest writers, and estimate readers.
// Writers follow the acked-reference-log discipline: an operation enters
// a worker's log if and only if the cluster acknowledged it, which is
// exactly the set the oracle replays.

// target is one estimator the load run drives: a tenant ("" = default)
// plus the estimator's name and kind. The configs mirror newRefs.
type target struct {
	tenant string
	name   string
	kind   string
}

// qualified returns the registry key ("acme/j" or "j") - the form the
// ingest protocol and ingestclient take.
func (t target) qualified() string {
	if t.tenant == "" {
		return t.name
	}
	return t.tenant + "/" + t.name
}

// path returns the HTTP route prefix for this target on a node.
func (t target) path(base string) string {
	if t.tenant == "" {
		return base + "/v1/estimators/" + t.name
	}
	return base + "/v1/tenants/" + t.tenant + "/estimators/" + t.name
}

// refOp is one acknowledged mutation: the target it hit and the record,
// in the estimator-library's own update vocabulary.
type refOp struct {
	target int
	rec    spatial.UpdateRecord
}

// wireRect converts a geo rect to the JSON update wire form.
func wireRect(r geo.HyperRect) [][2]uint64 {
	out := make([][2]uint64, len(r))
	for i, iv := range r {
		out[i] = [2]uint64{iv.Lo, iv.Hi}
	}
	return out
}

// updateWireRequest is the POST /update body (spatialserve's
// updateRequest).
type updateWireRequest struct {
	Op     string        `json:"op,omitempty"`
	Side   string        `json:"side,omitempty"`
	Rects  [][][2]uint64 `json:"rects,omitempty"`
	Points [][]uint64    `json:"points,omitempty"`
}

// wireSide maps the library's update side to the JSON wire string.
func wireSide(s spatial.UpdateSide) string {
	switch s {
	case spatial.SideLeft:
		return "left"
	case spatial.SideRight:
		return "right"
	case spatial.SideInner:
		return "inner"
	case spatial.SideOuter:
		return "outer"
	}
	return ""
}

// randRecord draws one update for a target: mostly inserts, with an
// occasional delete of a record this worker already got acknowledged
// (so the delete is always of a present object). For a delete it also
// returns the deleted record's index in history, else -1.
func randRecord(rng *rand.Rand, kind string, dom uint64, history []spatial.UpdateRecord) (spatial.UpdateRecord, int) {
	if len(history) > 0 && rng.Intn(8) == 0 {
		i := rng.Intn(len(history))
		rec := history[i]
		rec.Op = spatial.OpDelete
		return rec, i
	}
	span := func() geo.Interval {
		lo := rng.Uint64() % (dom - 1)
		return geo.NewInterval(lo, lo+1+rng.Uint64()%(dom-lo-1))
	}
	rec := spatial.UpdateRecord{Op: spatial.OpInsert}
	switch kind {
	case "join":
		rec.Side = spatial.SideLeft
		if rng.Intn(2) == 1 {
			rec.Side = spatial.SideRight
		}
		rec.Rect = geo.HyperRect{span(), span()}
	case "range":
		rec.Side = spatial.SideData
		rec.Rect = geo.HyperRect{span()}
	case "epsjoin":
		rec.Side = spatial.SideLeft
		if rng.Intn(2) == 1 {
			rec.Side = spatial.SideRight
		}
		rec.Point = geo.Point{rng.Uint64() % dom, rng.Uint64() % dom}
	case "containment":
		rec.Side = spatial.SideInner
		if rng.Intn(2) == 1 {
			rec.Side = spatial.SideOuter
		}
		rec.Rect = geo.HyperRect{span(), span()}
	}
	return rec, -1
}

// pickTarget draws a target index: zipf-skewed when the run configures
// skew (hot keys), uniform otherwise.
func pickTarget(rng *rand.Rand, zipf *rand.Zipf, n int) int {
	if zipf != nil {
		return int(zipf.Uint64())
	}
	return rng.Intn(n)
}

// newZipf builds the worker's skew source (nil when disabled).
func newZipf(rng *rand.Rand, s float64, n int) *rand.Zipf {
	if s <= 1 || n < 2 {
		return nil
	}
	return rand.NewZipf(rng, s, 1, uint64(n-1))
}

// mintTraceparent draws a fresh W3C trace context from the worker's rng
// and returns the header value plus the trace ID's hex form, so client-
// side op records and server-side /admin/trace segments share one ID.
func mintTraceparent(rng *rand.Rand) (header, traceID string) {
	var tid trace.TraceID
	var sid trace.SpanID
	rng.Read(tid[:])
	rng.Read(sid[:])
	if tid.IsZero() {
		tid[15] = 1
	}
	return trace.Traceparent(tid, sid), tid.String()
}

// postUpdate sends one idempotent JSON update and resolves it to a
// definitive outcome: retries with the same Idempotency-Key ride the
// server's exactly-once window, so an ambiguous failure (connection
// error, 5xx during a node kill) never double-applies and never silently
// drops an acked op. Every attempt carries the op's X-Request-Id and
// traceparent, so retries of one op land in one trace. Returns whether
// the op is durably applied.
func (r *runner) postUpdate(ctx context.Context, url, key, traceparent string, body []byte) (bool, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return false, fmt.Errorf("unresolved after %d attempts: %w (last: %v)", attempt, ctx.Err(), lastErr)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		req.Header.Set("X-Request-Id", key)
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := r.hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				return true, nil
			case resp.StatusCode >= 400 && resp.StatusCode < 500 &&
				resp.StatusCode != http.StatusConflict &&
				resp.StatusCode != http.StatusTooManyRequests &&
				resp.StatusCode != http.StatusRequestTimeout:
				// A definitive rejection: not applied, not retryable.
				return false, nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Duration(20+attempt*20) * time.Millisecond):
		}
	}
}

// updateWorker is the closed-loop JSON writer: pick a (possibly hot)
// target, post one idempotent update via a rotating node, and log it as
// acked once the outcome is definitive. phasectx ends the loop; opctx
// survives the phase so in-flight ambiguity resolves during quiesce.
func (r *runner) updateWorker(phasectx, opctx context.Context, id int, ps *phaseStats) []refOp {
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(id)*7919))
	zipf := newZipf(rng, r.cfg.ZipfS, len(r.targets))
	h := ps.hist("update")
	history := make([][]spatial.UpdateRecord, len(r.targets))
	var acked []refOp
	for n := 0; ; n++ {
		if phasectx.Err() != nil {
			return acked
		}
		ti := pickTarget(rng, zipf, len(r.targets))
		tg := r.targets[ti]
		rec, del := randRecord(rng, tg.kind, r.cfg.Dom, history[ti])
		wire := updateWireRequest{Side: wireSide(rec.Side)}
		if rec.Op == spatial.OpDelete {
			wire.Op = "delete"
		}
		if rec.Point != nil {
			wire.Points = [][]uint64{rec.Point}
		} else {
			wire.Rects = [][][2]uint64{wireRect(rec.Rect)}
		}
		body, _ := json.Marshal(wire)
		key := fmt.Sprintf("%s-w%d-%d", ps.name, id, n)
		tp, traceID := mintTraceparent(rng)

		r.gate.RLock()
		node := r.node(rng.Intn(1 << 20))
		start := time.Now()
		applied, err := r.postUpdate(opctx, tg.path(node)+"/update", key, tp, body)
		d := time.Since(start)
		r.gate.RUnlock()
		if err != nil {
			// The op's outcome is unknown and the grace window is gone: the
			// acked log can no longer be trusted either way.
			h.fail()
			r.fatalf("update worker %d: ambiguous op %s: %v", id, key, err)
			return acked
		}
		if !applied {
			h.fail()
			continue
		}
		h.observeOp(d, start, "rid="+key+" trace="+traceID)
		acked = append(acked, refOp{target: ti, rec: rec})
		if del >= 0 {
			history[ti] = removeAt(history[ti], del)
		} else {
			history[ti] = append(history[ti], rec)
		}
	}
}

// removeAt drops history[i] so a deleted object is not deleted twice.
// The history's order carries no meaning, so it swap-removes in O(1) and
// a writer's rate does not fall as its history grows.
func removeAt(hist []spatial.UpdateRecord, i int) []spatial.UpdateRecord {
	last := len(hist) - 1
	hist[i] = hist[last]
	return hist[:last]
}

// streamWriter is one streaming-ingest session and its sent history.
// Exactly-once ordered delivery means that after a successful Flush the
// whole history is acked, in order - the stream's reference log.
type streamWriter struct {
	client  *ingestclient.Client
	session string
	target  int
	sent    []spatial.UpdateRecord
	// history holds the not-yet-deleted inserts, so in-session deletes
	// always target a present object.
	history []spatial.UpdateRecord
}

// streamWorker drives one spatial-ingest/1 session against a join-kind
// target: batches of records with occasional in-session deletes, Send
// latency recorded per batch (closed-loop: Send blocks while the credit
// window is full, so it measures real backpressure).
func (r *runner) streamWorker(phasectx context.Context, id int, ps *phaseStats, sw *streamWriter) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + 104729 + int64(id)*7919))
	h := ps.hist("stream")
	for batchNo := 1; ; batchNo++ {
		if phasectx.Err() != nil {
			return
		}
		recs := make([]spatial.UpdateRecord, 0, r.cfg.BatchSize)
		for i := 0; i < r.cfg.BatchSize; i++ {
			rec, del := randRecord(rng, "join", r.cfg.Dom, sw.history)
			if del >= 0 {
				sw.history = removeAt(sw.history, del)
			} else {
				sw.history = append(sw.history, rec)
			}
			recs = append(recs, rec)
		}
		r.gate.RLock()
		start := time.Now()
		err := sw.client.Send(recs)
		d := time.Since(start)
		r.gate.RUnlock()
		if err != nil {
			// Terminal stream error: the sent history's applied prefix is
			// unknown, so the oracle cannot be satisfied.
			h.fail()
			r.fatalf("stream worker %d: terminal: %v", id, err)
			return
		}
		// The server's ingest.batch spans carry (session, seq) attrs; this
		// reference lets the report's worst batch be found among them.
		h.observeOp(d, start, fmt.Sprintf("session=%s batch=%d", sw.session, batchNo))
		sw.sent = append(sw.sent, recs...)
	}
}

// estimateWorker is the closed-loop reader: zipf-picked targets, single
// estimates on every kind and batched range estimates, via rotating
// nodes. Failures are recorded, not fatal - phases that kill nodes
// expect a bounded error window.
func (r *runner) estimateWorker(phasectx context.Context, id int, ps *phaseStats, allowPartial bool) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + 224737 + int64(id)*7919))
	zipf := newZipf(rng, r.cfg.ZipfS, len(r.targets))
	single := ps.hist("estimate")
	batch := ps.hist("estimate-batch")
	for n := 0; ; n++ {
		if phasectx.Err() != nil {
			return
		}
		ti := pickTarget(rng, zipf, len(r.targets))
		tg := r.targets[ti]
		ec := ingestclient.NewEstimateClient(r.node(rng.Intn(1<<20)), r.hc)
		ctx, cancel := context.WithTimeout(phasectx, 10*time.Second)
		rid := fmt.Sprintf("%s-e%d-%d", ps.name, id, n)
		tp, traceID := mintTraceparent(rng)
		ref := "rid=" + rid + " trace=" + traceID
		var err error
		h := single
		if tg.kind == "range" {
			q := wireRect(geo.HyperRect{geo.NewInterval(0, r.cfg.Dom/2+rng.Uint64()%(r.cfg.Dom/2))})
			if n%2 == 0 {
				h = batch
				qs := [][][2]uint64{q, wireRect(geo.HyperRect{geo.NewInterval(r.cfg.Dom/4, r.cfg.Dom-1)})}
				start := time.Now()
				_, err = ec.EstimateBatch(ctx, tg.qualified(), qs, allowPartial)
				recordOutcome(h, start, time.Since(start), err, "")
				cancel()
				continue
			}
			start := time.Now()
			_, err = ec.Estimate(ctx, tg.qualified(), ingestclient.EstimateOptions{
				Query: q, AllowPartial: allowPartial, RequestID: rid, Traceparent: tp,
			})
			recordOutcome(h, start, time.Since(start), err, ref)
			cancel()
			continue
		}
		start := time.Now()
		_, err = ec.Estimate(ctx, tg.qualified(), ingestclient.EstimateOptions{
			AllowPartial: allowPartial, RequestID: rid, Traceparent: tp,
		})
		recordOutcome(h, start, time.Since(start), err, ref)
		cancel()
	}
}

// recordOutcome folds one op's result into its histogram, pinning the
// worst op's start time and reference.
func recordOutcome(h *hist, start time.Time, d time.Duration, err error, ref string) {
	if err != nil {
		h.fail()
		return
	}
	h.observeOp(d, start, ref)
}
