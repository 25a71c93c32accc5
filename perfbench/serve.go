package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	spatial "repro"
	"repro/ingestclient"
	"repro/internal/cluster"
)

// The serve rung: one spatialserve node over HTTP with the cluster's
// flags but no peers, fed the workload's own inputs. Its gap to the
// cluster's number is the fan-out cost.

// serveRung holds the single-node medians.
type serveRung struct {
	updateMs, estimateMs, snapshotMs, revalidateMs float64
	ingestAckMs, sendBlockMs                       float64
}

// serveSamples bounds the requests per serve measurement.
const serveSamples = 256

// runServeRung launches one node in dir and measures every serve rung.
func runServeRung(cfg config, in layerInputs, dir string) (*serveRung, error) {
	p, err := cluster.Launch(cluster.LaunchOptions{
		Binary: cfg.server,
		Args:   []string{"-addr=127.0.0.1:0", "-data-dir=" + dir, "-checkpoint-interval=2s"},
		Env:    nodeEnv,
	})
	if err != nil {
		return nil, err
	}
	track(p)
	defer os.RemoveAll(dir)
	defer untrack(p)
	defer p.Kill()
	if err := cluster.WaitHealthy(p.URL, 0); err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if err := createTargets(hc, p.URL); err != nil {
		return nil, err
	}
	targets := allTargets()
	var s serveRung

	// Updates: the workload's records as idempotent JSON updates.
	var lat []float64
	for i, op := range in.records[:min(serveSamples, len(in.records))] {
		t0 := time.Now()
		if err := postUpdate(hc, targets[op.target].path(p.URL)+"/update", fmt.Sprintf("s%d", i), op.rec); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	s.updateMs = medianFloat(lat)

	// Stream ingest: one session kept at the full credit window, as the
	// cluster's ingest clients are.
	if s.ingestAckMs, s.sendBlockMs, err = serveIngest(p.URL, in); err != nil {
		return nil, err
	}

	// Estimates: the workload's reads, once the writes above settled.
	lat = lat[:0]
	ec := ingestclient.NewEstimateClient(p.URL, hc)
	for _, op := range in.reads {
		tg := targets[op.target]
		var opts ingestclient.EstimateOptions
		if tg.kind == "range" {
			opts.Query = wireRect(in.queries[op.query])
		}
		t0 := time.Now()
		if _, err := ec.Estimate(context.Background(), tg.qualified(), opts); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	s.estimateMs = medianFloat(lat)

	// Snapshots: full transfers (200), then revalidations (304).
	var full, reval []float64
	for i := 0; i < serveSamples/4; i++ {
		tg := targets[in.reads[i%len(in.reads)].target]
		t0 := time.Now()
		etag, status, err := getSnapshot(hc, tg.path(p.URL)+"/snapshot", "")
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("snapshot of %s: status %d, %v", tg.qualified(), status, err)
		}
		full = append(full, ms(time.Since(t0)))
		t0 = time.Now()
		if _, status, err = getSnapshot(hc, tg.path(p.URL)+"/snapshot", etag); err != nil || status != http.StatusNotModified {
			return nil, fmt.Errorf("revalidating %s: status %d, %v", tg.qualified(), status, err)
		}
		reval = append(reval, ms(time.Since(t0)))
	}
	s.snapshotMs, s.revalidateMs = medianFloat(full), medianFloat(reval)
	return &s, nil
}

// getSnapshot fetches one snapshot, conditionally when etag is set, and
// returns the response's validator and status.
func getSnapshot(hc *http.Client, u, etag string) (string, int, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return "", 0, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return "", 0, err
	}
	return resp.Header.Get("ETag"), resp.StatusCode, nil
}

// serveIngest streams the workload's records for the first join target
// (topped up from that target's ingest stream) in 32-record batches on
// one session and returns the median Send-to-ack latency once the credit
// window is full, and the mean time Send blocked.
func serveIngest(base string, in layerInputs) (ackMs, blockMs float64, err error) {
	u, err := url.Parse(base)
	if err != nil {
		return 0, 0, err
	}
	const batches, warm = 128, 32
	w := window{from: time.Now(), to: time.Now().Add(time.Hour)}
	log := newOpLog(w)
	timing := &ingestTiming{log: log}
	c, err := ingestclient.Dial(ingestclient.Options{
		BaseURL:   base,
		Estimator: "j",
		Session:   "serve-rung",
		Dial: func() (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", u.Host, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return &ackConn{Conn: conn, onAck: timing.onAck}, nil
		},
	})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	ti := ingestTarget(0)
	var recs []spatial.UpdateRecord
	for _, op := range in.records {
		if op.target == ti {
			recs = append(recs, op.rec)
		}
	}
	gen := newRecordGen(0, streamIngest)
	for len(recs) < (batches+warm)*batchSize {
		recs = append(recs, gen.next(ti, "join"))
	}
	var blocked time.Duration
	for b := 0; b < batches+warm; b++ {
		batch := recs[b*batchSize : (b+1)*batchSize]
		t0 := time.Now()
		timing.mu.Lock()
		timing.starts = append(timing.starts, t0)
		timing.mu.Unlock()
		if err := c.Send(batch); err != nil {
			return 0, 0, err
		}
		if b >= warm {
			blocked += time.Since(t0)
		}
	}
	if err := c.Flush(); err != nil {
		return 0, 0, err
	}
	log.mu.Lock()
	ops := append([]sample(nil), log.ops...)
	log.mu.Unlock()
	if len(ops) != batches+warm {
		return 0, 0, fmt.Errorf("serve ingest: %d of %d batches timed", len(ops), batches+warm)
	}
	var steady []float64
	for _, op := range ops[warm:] {
		steady = append(steady, ms(op.lat))
	}
	return medianFloat(steady), ms(blocked) / batches, nil
}
