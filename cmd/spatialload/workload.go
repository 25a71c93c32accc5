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
)

// The workload side of the harness: targets (tenant x estimator kind),
// the wire shapes shared with spatialserve, and the three worker types -
// JSON update writers, streaming-ingest writers, and estimate readers.
// Writers follow the acked-reference-log discipline: an operation enters
// a worker's log if and only if the cluster acknowledged it, which is
// exactly the set the oracle replays.

// target is one estimator the load run drives: a tenant ("" = default)
// plus the estimator's name and kind. The configs mirror newRef.
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
func randRecord(rng *rand.Rand, kind string, history []spatial.UpdateRecord) (spatial.UpdateRecord, int) {
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

// newZipf builds the worker's hot-key source over n targets: its
// Uint64 draws a target index, low indexes most often.
func newZipf(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, zipfS, 1, uint64(n-1))
}

// postUpdate sends one idempotent JSON update and resolves it to a
// definitive outcome: retries with the same Idempotency-Key ride the
// server's exactly-once window, so an ambiguous failure (connection
// error, 5xx during a node kill) never double-applies and never silently
// drops an acked op. Returns whether the op is durably applied.
func (r *runner) postUpdate(ctx context.Context, url, key string, body []byte) (bool, error) {
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
func (r *runner) updateWorker(phasectx, opctx context.Context, tag string, id int, counts *phaseCounts) []refOp {
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(id)*7919))
	zipf := newZipf(rng, len(r.targets))
	history := make([][]spatial.UpdateRecord, len(r.targets))
	var acked []refOp
	for n := 0; ; n++ {
		if phasectx.Err() != nil {
			return acked
		}
		ti := int(zipf.Uint64())
		tg := r.targets[ti]
		rec, del := randRecord(rng, tg.kind, history[ti])
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
		key := fmt.Sprintf("%s-w%d-%d", tag, id, n)

		r.gate.RLock()
		node := r.node(rng.Intn(1 << 20))
		applied, err := r.postUpdate(opctx, tg.path(node)+"/update", key, body)
		r.gate.RUnlock()
		if err != nil {
			// The op's outcome is unknown and the grace window is gone: the
			// acked log can no longer be trusted either way.
			r.fatalf("update worker %d: ambiguous op %s: %v", id, key, err)
			return acked
		}
		if !applied {
			continue
		}
		counts.updates.Add(1)
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
func removeAt(history []spatial.UpdateRecord, i int) []spatial.UpdateRecord {
	last := len(history) - 1
	history[i] = history[last]
	return history[:last]
}

// streamWriter is one streaming-ingest session and its sent history.
// Exactly-once ordered delivery means that after a successful Flush the
// whole history is acked, in order - the stream's reference log.
type streamWriter struct {
	client *ingestclient.Client
	target int
	sent   []spatial.UpdateRecord
	// history holds the not-yet-deleted inserts, so in-session deletes
	// always target a present object.
	history []spatial.UpdateRecord
}

// streamWorker drives one spatial-ingest/1 session against a join-kind
// target: batches of records with occasional in-session deletes.
func (r *runner) streamWorker(phasectx context.Context, id int, counts *phaseCounts, sw *streamWriter) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + 104729 + int64(id)*7919))
	for phasectx.Err() == nil {
		recs := make([]spatial.UpdateRecord, 0, batchSize)
		for i := 0; i < batchSize; i++ {
			rec, del := randRecord(rng, "join", sw.history)
			if del >= 0 {
				sw.history = removeAt(sw.history, del)
			} else {
				sw.history = append(sw.history, rec)
			}
			recs = append(recs, rec)
		}
		r.gate.RLock()
		err := sw.client.Send(recs)
		r.gate.RUnlock()
		if err != nil {
			// Terminal stream error: the sent history's applied prefix is
			// unknown, so the oracle cannot be satisfied.
			r.fatalf("stream worker %d: terminal: %v", id, err)
			return
		}
		counts.batches.Add(1)
		sw.sent = append(sw.sent, recs...)
	}
}

// estimateWorker is the closed-loop reader: zipf-picked targets, single
// estimates on every kind and batched range estimates, via rotating
// nodes. Failures are not fatal - phases that kill nodes expect a
// bounded error window - and only answered estimates are counted.
func (r *runner) estimateWorker(phasectx context.Context, id int, counts *phaseCounts, allowPartial bool) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + 224737 + int64(id)*7919))
	zipf := newZipf(rng, len(r.targets))
	for n := 0; phasectx.Err() == nil; n++ {
		tg := r.targets[zipf.Uint64()]
		ec := ingestclient.NewEstimateClient(r.node(rng.Intn(1<<20)), r.hc)
		ctx, cancel := context.WithTimeout(phasectx, 10*time.Second)
		var err error
		switch {
		case tg.kind == "range" && n%2 == 0:
			qs := [][][2]uint64{
				wireRect(geo.HyperRect{geo.NewInterval(0, dom/2+rng.Uint64()%(dom/2))}),
				wireRect(geo.HyperRect{geo.NewInterval(dom/4, dom-1)}),
			}
			_, err = ec.EstimateBatch(ctx, tg.qualified(), qs, allowPartial)
		case tg.kind == "range":
			q := wireRect(geo.HyperRect{geo.NewInterval(0, dom/2+rng.Uint64()%(dom/2))})
			_, err = ec.Estimate(ctx, tg.qualified(), ingestclient.EstimateOptions{Query: q, AllowPartial: allowPartial})
		default:
			_, err = ec.Estimate(ctx, tg.qualified(), ingestclient.EstimateOptions{AllowPartial: allowPartial})
		}
		cancel()
		if err == nil {
			counts.estimates.Add(1)
		}
	}
}
