package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"syscall"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/ingestclient"
	"repro/internal/cluster"
)

// The cluster side of a run: bring up a 3-node, 4-partition
// spatialserve ring from real processes, create and preload the eight
// targets, run one workload's two closed-loop clients over a measured
// window, and check every answer against an in-process replay of the
// acknowledged writes.

// warmup precedes every measured window: caches fill, connections open.
const warmup = time.Second

// nodeEnv runs every node on one processor. Three nodes and the
// benchmark share a machine of few cores; with a processor per core in
// each node, their idle schedulers spin and hand goroutines between
// cores, and that overhead is what a busy host inflates. On a 2-vCPU
// virtual machine one processor per node cut read_hot's CPU per estimate
// by a fifth and the run-to-run spread of its p99 from 0.27 to 0.18.
var nodeEnv = []string{"GOMAXPROCS=1"}

// config is one benchmark invocation.
type config struct {
	server  string // spatialserve binary
	scratch string // parent of the per-run node data dirs
	wl      workload
	seed    int64
	seconds float64
}

// newHTTPClient returns a keep-alive client sized for the run's
// connection count.
func newHTTPClient() *http.Client {
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// clusterRun is one launched, preloaded cluster and its reference state.
type clusterRun struct {
	cfg     config
	dir     string
	cl      *cluster.ProcCluster
	hc      *http.Client
	targets []target
	// refs replay every acknowledged write in process; refVals caches the
	// preloaded reference answers (per target, per query index).
	refs    []refEstimator
	refVals [][]float64
	acked   *ackLog
	// replayed is how far into each target's acked log refs have been
	// brought.
	replayed []int
	// procs are the node handles as launched; Close reaps them, leaving
	// each node's resource usage (peak RSS) behind.
	procs []*cluster.Proc
	rssMB float64
	// cpuSec is the nodes' summed user+system CPU time over their
	// lifetime, read with the peak RSS once they are reaped.
	cpuSec float64
}

// launch starts the ring. traced turns on full trace retention.
func launch(cfg config, dir string, traced bool) (*clusterRun, error) {
	args := []string{"-checkpoint-interval=2s"}
	if traced {
		args = append(args, "-trace-sample=1")
	}
	cl, err := cluster.LaunchProcCluster(cluster.ProcClusterSpec{
		Binary:     cfg.server,
		Nodes:      nodes,
		Partitions: partitions,
		DataRoot:   dir,
		ExtraArgs:  args,
		Env:        nodeEnv,
	})
	if err != nil {
		return nil, fmt.Errorf("launching cluster: %w", err)
	}
	for _, p := range cl.Procs {
		track(p)
	}
	t := allTargets()
	return &clusterRun{
		cfg: cfg, dir: dir, cl: cl, hc: newHTTPClient(), targets: t, acked: newAckLog(len(t)),
		procs: append([]*cluster.Proc(nil), cl.Procs...),
	}, nil
}

// close kills every node, records their summed peak RSS and removes the
// data dirs.
func (r *clusterRun) close() {
	r.cl.Close()
	for _, p := range r.procs {
		untrack(p)
	}
	var kb int64
	for _, p := range r.procs {
		if ps := p.Cmd.ProcessState; ps != nil {
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				kb += ru.Maxrss
			}
			r.cpuSec += (ps.UserTime() + ps.SystemTime()).Seconds()
		}
	}
	r.rssMB = float64(kb) / 1024
	r.hc.CloseIdleConnections()
	os.RemoveAll(r.dir)
}

// live holds every running server process, so a signal that ends the
// benchmark early still stops them.
var live = struct {
	sync.Mutex
	procs map[*cluster.Proc]bool
}{procs: map[*cluster.Proc]bool{}}

// track registers a launched process.
func track(p *cluster.Proc) {
	live.Lock()
	live.procs[p] = true
	live.Unlock()
}

// untrack forgets a process that has been killed and reaped.
func untrack(p *cluster.Proc) {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// killLive SIGKILLs every tracked process; the caller is about to exit.
func killLive() {
	live.Lock()
	defer live.Unlock()
	for p := range live.procs {
		p.Cmd.Process.Kill()
	}
}

// httpJSON sends a JSON request and requires the given status.
func httpJSON(hc *http.Client, method, u string, body any, want int) error {
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, u, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return nil
}

// createTargets registers the tenant and creates the eight estimators
// through the node at base.
func createTargets(hc *http.Client, base string) error {
	for _, tn := range tenants {
		if tn != "" {
			if err := httpJSON(hc, http.MethodPut, base+"/v1/tenants/"+tn, map[string]any{}, http.StatusOK); err != nil {
				return err
			}
		}
	}
	for _, tg := range allTargets() {
		createURL := base + "/v1/estimators"
		if tg.tenant != "" {
			createURL = base + "/v1/tenants/" + tg.tenant + "/estimators"
		}
		req := map[string]any{"name": tg.name, "kind": tg.kind, "config": createConfig(tg.kind)}
		if err := httpJSON(hc, http.MethodPost, createURL, req, http.StatusCreated); err != nil {
			return err
		}
	}
	return nil
}

// preload streams preloadPerTarget records into every target (one
// spatial-ingest/1 session each, in parallel) and then sends preloadJSON
// plain JSON updates per target. Keyed updates (the mixed workload's)
// travel the exactly-once batch path like streams; plain ones are the
// only traffic on the un-keyed update path, so every write path has run
// before any window opens. On a healthy cluster a plain update either
// applies or fails the run.
func (r *clusterRun) preload() error {
	gens := make([]*recordGen, len(r.targets))
	errs := make([]error, len(r.targets))
	sent := make([][]spatial.UpdateRecord, len(r.targets))
	var wg sync.WaitGroup
	for ti, tg := range r.targets {
		gens[ti] = newRecordGen(r.cfg.seed, streamPreload+int64(ti))
		wg.Add(1)
		go func(ti int, tg target) {
			defer wg.Done()
			c, err := ingestclient.Dial(ingestclient.Options{
				BaseURL:   r.cl.URLs[ti%len(r.cl.URLs)],
				Estimator: tg.qualified(),
				Session:   fmt.Sprintf("preload-%d", ti),
			})
			if err != nil {
				errs[ti] = err
				return
			}
			defer c.Close()
			for n := 0; n < preloadPerTarget; n += batchSize {
				batch := make([]spatial.UpdateRecord, batchSize)
				for i := range batch {
					batch[i] = gens[ti].next(ti, tg.kind)
				}
				if errs[ti] = c.Send(batch); errs[ti] != nil {
					return
				}
				sent[ti] = append(sent[ti], batch...)
			}
			errs[ti] = c.Flush()
		}(ti, tg)
	}
	wg.Wait()
	for ti, err := range errs {
		if err != nil {
			return fmt.Errorf("preloading %s: %w", r.targets[ti].qualified(), err)
		}
		for _, rec := range sent[ti] {
			r.acked.add(ti, rec)
		}
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for k := 0; k < preloadJSON; k++ {
		for ti, tg := range r.targets {
			rec := gens[ti].next(ti, tg.kind)
			node := r.cl.URLs[rng.Intn(len(r.cl.URLs))]
			if err := httpJSON(r.hc, http.MethodPost, tg.path(node)+"/update", toWire(rec), http.StatusOK); err != nil {
				return fmt.Errorf("preload update: %w", err)
			}
			r.acked.add(ti, rec)
		}
	}
	return nil
}

// buildRefs replays the acked set into fresh in-process estimators and
// caches the reference answers every read_hot estimate must equal.
func (r *clusterRun) buildRefs(qs []geo.HyperRect) error {
	r.refs = make([]refEstimator, len(r.targets))
	for ti, tg := range r.targets {
		ref, err := newRef(tg.kind)
		if err != nil {
			return err
		}
		r.refs[ti] = ref
	}
	r.replayed = make([]int, len(r.targets))
	if err := r.replay(); err != nil {
		return err
	}
	r.refVals = make([][]float64, len(r.targets))
	for ti, tg := range r.targets {
		if tg.kind != "range" {
			v, err := estimateValue(r.refs[ti], nil)
			if err != nil {
				return err
			}
			r.refVals[ti] = []float64{v}
			continue
		}
		for _, q := range qs {
			v, err := estimateValue(r.refs[ti], q)
			if err != nil {
				return err
			}
			r.refVals[ti] = append(r.refVals[ti], v)
		}
	}
	return nil
}

// ackLog is the set of acknowledged writes, per target, as concatenated
// record encodings. It holds no pointers, so a long ingest window's
// hundreds of thousands of records cost the benchmark's garbage collector
// nothing to scan.
type ackLog struct {
	enc [][]byte
	n   int
}

// newAckLog returns an empty log over n targets.
func newAckLog(n int) *ackLog { return &ackLog{enc: make([][]byte, n)} }

// add appends one acknowledged record of target ti.
func (a *ackLog) add(ti int, rec spatial.UpdateRecord) {
	a.enc[ti] = rec.AppendBinary(a.enc[ti])
	a.n++
}

// addEncoded appends count records of target ti, already encoded.
func (a *ackLog) addEncoded(ti int, enc []byte, count int) {
	a.enc[ti] = append(a.enc[ti], enc...)
	a.n += count
}

// replay brings the reference estimators up to the acked log, one
// goroutine per target (sketch updates commute, so only the per-target
// set matters).
func (r *clusterRun) replay() error {
	errs := make([]error, len(r.targets))
	var wg sync.WaitGroup
	for ti := range r.targets {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			enc := r.acked.enc[ti]
			for off := r.replayed[ti]; off < len(enc); {
				rec, n, err := spatial.DecodeUpdateRecord(enc[off:])
				if err == nil {
					err = r.refs[ti].Apply(rec)
				}
				if err != nil {
					errs[ti] = fmt.Errorf("replaying into %s: %w", r.targets[ti].qualified(), err)
					return
				}
				off += n
				r.replayed[ti] = off
			}
		}(ti)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// postUpdate sends one idempotent JSON update and resolves it: retries
// of an ambiguous outcome reuse the Idempotency-Key, so nothing is
// applied twice. Any outcome but "applied" is an error.
func postUpdate(hc *http.Client, u, key string, rec spatial.UpdateRecord) error {
	body, err := json.Marshal(toWire(rec))
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := hc.Do(req)
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				return nil
			case resp.StatusCode >= 400 && resp.StatusCode < 500 &&
				resp.StatusCode != http.StatusConflict &&
				resp.StatusCode != http.StatusTooManyRequests &&
				resp.StatusCode != http.StatusRequestTimeout:
				return fmt.Errorf("update %s rejected: status %d: %s", key, resp.StatusCode, bytes.TrimSpace(msg))
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("update %s unresolved after %d attempts: %w", key, attempt+1, err)
		}
		time.Sleep(time.Duration(20+attempt*20) * time.Millisecond)
	}
}

// windowResult is what one measured window produced.
type windowResult struct {
	w       window
	fg      opStats // the workload's foreground operation
	updates opStats // JSON updates (mixed only)
	ops     float64 // every acknowledged client op (records for ingest) per second
	// allUnits counts every acknowledged client op (records for ingest)
	// from the clients' start to their stop, warm-up and close included:
	// the work the nodes' lifetime CPU paid for.
	allUnits int
	attempts int
	failed   int
	before   counters // cluster counters at the window's open and close
	after    counters
}

// runWindow drives the workload's clients for warm-up plus the window,
// stops them, drains the streams and adds every acknowledged write to
// the acked set. It returns an error for anything that makes the acked
// set untrustworthy or an answer wrong.
func (r *clusterRun) runWindow(qs []geo.HyperRect) (*windowResult, error) {
	wl := r.cfg.wl
	start := time.Now()
	w := window{from: start.Add(warmup)}
	w.to = w.from.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	fg, upd := newOpLog(w), newOpLog(w)
	stop := make(chan struct{})

	var mu sync.Mutex
	var fatal error
	fail := func(err error) {
		mu.Lock()
		if fatal == nil {
			fatal = err
		}
		mu.Unlock()
	}
	addAcked := func(ti int, enc []byte, count int) {
		mu.Lock()
		r.acked.addEncoded(ti, enc, count)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < wl.estimateClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := r.estimateClient(i, qs, fg, stop); err != nil {
				fail(err)
			}
		}(i)
	}
	for i := 0; i < wl.updateClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := r.updateClient(i, upd, stop, addAcked); err != nil {
				fail(err)
			}
		}(i)
	}
	for i := 0; i < wl.ingestClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := r.ingestClient(i, fg, stop, addAcked); err != nil {
				fail(err)
			}
		}(i)
	}

	res := &windowResult{w: w}
	time.Sleep(time.Until(w.from))
	before, berr := scrapeCounters(r.hc, r.cl.URLs)
	time.Sleep(time.Until(w.to))
	after, aerr := scrapeCounters(r.hc, r.cl.URLs)
	close(stop)
	wg.Wait()
	if fatal != nil {
		return nil, fatal
	}
	if berr != nil {
		return nil, berr
	}
	if aerr != nil {
		return nil, aerr
	}
	res.before, res.after = before, after
	res.fg, res.updates = fg.stats(), upd.stats()
	res.allUnits = fg.allUnits + upd.allUnits
	res.attempts = res.fg.n + res.fg.failed + res.updates.n + res.updates.failed
	res.failed = res.fg.failed + res.updates.failed
	res.ops = res.fg.perSecond + res.updates.perSecond
	return res, nil
}

// stopped reports whether the stop channel is closed.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// estimateClient is one closed-loop reader: zipf-picked targets, a
// seeded range query for range targets, a random node per request.
// With checkValues, every answer must equal the reference's value.
func (r *clusterRun) estimateClient(i int, qs []geo.HyperRect, log *opLog, stop <-chan struct{}) error {
	reads := newReadGen(r.cfg.seed, i)
	rng := rand.New(rand.NewSource(r.cfg.seed*7919 + streamReader + int64(i)))
	clients := make([]*ingestclient.EstimateClient, len(r.cl.URLs))
	for n, u := range r.cl.URLs {
		clients[n] = ingestclient.NewEstimateClient(u, r.hc)
	}
	for !stopped(stop) {
		op := reads.next()
		ti, qi := op.target, op.query
		tg := r.targets[ti]
		var opts ingestclient.EstimateOptions
		if tg.kind == "range" {
			opts.Query = wireRect(qs[qi])
		}
		ec := clients[rng.Intn(len(clients))]
		t0 := time.Now()
		est, err := ec.Estimate(context.Background(), tg.qualified(), opts)
		log.record(t0, time.Now(), 1, err)
		if err == nil && r.cfg.wl.checkValues && est.Value != r.refVals[ti][qi] {
			return fmt.Errorf("estimate of %s (query %d) = %v, in-process reference %v", tg.qualified(), qi, est.Value, r.refVals[ti][qi])
		}
	}
	return nil
}

// updateClient is one closed-loop JSON writer with Idempotency-Key.
func (r *clusterRun) updateClient(i int, log *opLog, stop <-chan struct{}, addAcked func(int, []byte, int)) error {
	writes := newWriteGen(r.cfg.seed, i)
	rng := rand.New(rand.NewSource(r.cfg.seed*7919 + streamWriter + int64(i)))
	for n := 0; !stopped(stop); n++ {
		op := writes.next()
		ti, rec := op.target, op.rec
		tg := r.targets[ti]
		node := r.cl.URLs[rng.Intn(len(r.cl.URLs))]
		t0 := time.Now()
		err := postUpdate(r.hc, tg.path(node)+"/update", fmt.Sprintf("u%d-%d", i, n), rec)
		log.record(t0, time.Now(), 1, err)
		if err != nil {
			return err
		}
		addAcked(ti, rec.AppendBinary(nil), 1)
	}
	return nil
}

// ingestTiming pairs each batch's Send time with its ack.
type ingestTiming struct {
	mu     sync.Mutex
	starts []time.Time // by seq-1
	acked  uint64
	log    *opLog
}

// onAck judges every batch up to the cumulative seq.
func (t *ingestTiming) onAck(seq uint64, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for ; t.acked < seq && t.acked < uint64(len(t.starts)); t.acked++ {
		t.log.record(t.starts[t.acked], at, batchSize, nil)
	}
}

// ingestClient is one spatial-ingest/1 session streaming batches onto a
// join target, closed-loop on the server's credit window.
func (r *clusterRun) ingestClient(i int, log *opLog, stop <-chan struct{}, addAcked func(int, []byte, int)) error {
	ti := ingestTarget(i)
	tg := r.targets[ti]
	base := r.cl.URLs[i%len(r.cl.URLs)]
	u, err := url.Parse(base)
	if err != nil {
		return err
	}
	timing := &ingestTiming{log: log}
	c, err := ingestclient.Dial(ingestclient.Options{
		BaseURL:   base,
		Estimator: tg.qualified(),
		Session:   fmt.Sprintf("bench-%d", i),
		Dial: func() (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", u.Host, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return &ackConn{Conn: conn, onAck: timing.onAck}, nil
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	gen := newRecordGen(r.cfg.seed, streamIngest+int64(i))
	var sent []byte
	nsent := 0
	for !stopped(stop) {
		batch := make([]spatial.UpdateRecord, batchSize)
		for k := range batch {
			batch[k] = gen.next(ti, tg.kind)
		}
		timing.mu.Lock()
		timing.starts = append(timing.starts, time.Now())
		timing.mu.Unlock()
		if err := c.Send(batch); err != nil {
			return fmt.Errorf("ingest session %d: %w", i, err)
		}
		for _, rec := range batch {
			sent = rec.AppendBinary(sent)
		}
		nsent += len(batch)
	}
	if err := c.Flush(); err != nil {
		return fmt.Errorf("ingest session %d: flush: %w", i, err)
	}
	if n := c.Reconnects(); n != 1 {
		return fmt.Errorf("ingest session %d reconnected %d times on a healthy cluster", i, n-1)
	}
	addAcked(ti, sent, nsent)
	return nil
}

// verify replays the acked writes not yet in the references and
// requires every node's merged snapshot of every target to be
// byte-identical to the reference's, and the run to have shed nothing
// and tripped no breaker.
func (r *clusterRun) verify() error {
	if err := r.replay(); err != nil {
		return err
	}
	for ti, tg := range r.targets {
		want, err := r.refs[ti].Marshal()
		if err != nil {
			return err
		}
		for _, node := range r.cl.URLs {
			resp, err := r.hc.Get(tg.path(node) + "/snapshot")
			if err != nil {
				return fmt.Errorf("snapshot of %s via %s: %w", tg.qualified(), node, err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return fmt.Errorf("snapshot of %s via %s: status %d, %v", tg.qualified(), node, resp.StatusCode, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("merged snapshot of %s via %s differs from the in-process replay of %d acked writes", tg.qualified(), node, r.acked.n)
			}
		}
	}
	c, err := scrapeCounters(r.hc, r.cl.URLs)
	if err != nil {
		return err
	}
	if c.admissionRejected != 0 || c.breakerMove != 0 {
		return fmt.Errorf("cluster shed %v requests and made %v breaker transitions", c.admissionRejected, c.breakerMove)
	}
	return nil
}

// runDir returns a fresh data dir under the run's scratch dir.
func runDir(cfg config, tag string) (string, error) {
	return os.MkdirTemp(cfg.scratch, fmt.Sprintf("%s-%s-", cfg.wl.name, tag))
}
