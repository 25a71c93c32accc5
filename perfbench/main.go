// Command perfbench is the repository's benchmark. It brings up a real
// 3-node, 4-partition spatialserve cluster, drives one workload with two
// closed-loop clients over a measured window, checks every answer
// against an in-process replay of the acknowledged writes, and prints
// its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is a traced replay reporting the per-layer ladder instead (see
// README.md). Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
//
// Any correctness mismatch or failed operation outside the benchmark's
// control exits non-zero without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run sets a cluster up;
// setup_s is the median, and the last cluster serves the window.
const setupRepeats = 9

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload to run: read_hot, mixed or ingest")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured window length in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	server := fs.String("server", "", "spatialserve binary")
	scratch := fs.String("scratch", "", "directory for node data dirs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	wl, ok := workloads[*wlName]
	if !ok || *server == "" || *scratch == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (read_hot|mixed|ingest), -server, -scratch, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	runScratch, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{server: *server, scratch: runScratch, wl: wl, seed: *seed, seconds: *seconds}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		killLive()
		os.RemoveAll(runScratch)
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopped the servers\n", sig)
		os.Exit(1)
	}()
	logf("workload=%s seed=%d seconds=%g trace=%d", wl.name, *seed, *seconds, *traced)
	var res *result
	if *traced == 1 {
		res, err = tracedRun(cfg)
	} else {
		res, err = untracedRun(cfg)
	}
	os.RemoveAll(runScratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// logf writes one progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// setupCluster launches a cluster in a fresh dir, lets onLaunch attach
// to it, and creates and preloads the targets: the work setup_s times.
func setupCluster(cfg config, tag string, traced bool, onLaunch func(*clusterRun)) (*clusterRun, error) {
	dir, err := runDir(cfg, tag)
	if err != nil {
		return nil, err
	}
	r, err := launch(cfg, dir, traced)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if onLaunch != nil {
		onLaunch(r)
	}
	if err := createTargets(r.hc, r.cl.URLs[0]); err != nil {
		r.close()
		return nil, fmt.Errorf("creating targets: %w", err)
	}
	if err := r.preload(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// measure runs the window on a set-up cluster and verifies the outcome.
func measure(r *clusterRun) (*windowResult, error) {
	qs := queries(r.cfg.seed)
	if err := r.buildRefs(qs); err != nil {
		return nil, err
	}
	res, err := r.runWindow(qs)
	if err != nil {
		return nil, err
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	return res, nil
}

// untracedRun sets the cluster up setupRepeats times, measures the
// window on the last one and reports the end-to-end metrics.
func untracedRun(cfg config) (*result, error) {
	var setups []float64
	var r *clusterRun
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		var err error
		if r, err = setupCluster(cfg, fmt.Sprint(k), false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			r.close()
		}
	}
	res, err := measure(r)
	r.close()
	if err != nil {
		return nil, err
	}
	report(cfg.wl, res)
	m, err := e2eMetrics(res, medianFloat(setups), r.rssMB, ratio(r.cpuSec*1e3, float64(res.allUnits)))
	if err != nil {
		return nil, err
	}
	printMetrics(cfg.wl, endToEnd, m)
	return &result{Correct: true, Attempted: res.attempts, Failed: res.failed, Metrics: m}, nil
}

// clusterPass runs one set-up-and-measure cycle, collecting the server's
// spans when traced.
func clusterPass(cfg config, traced bool) (*windowResult, map[string][]time.Duration, error) {
	var col *spanCollector
	tag := "plain"
	if traced {
		tag = "traced"
	}
	r, err := setupCluster(cfg, tag, traced, func(r *clusterRun) {
		if traced {
			col = startCollector(r.hc, r.cl.URLs)
		}
	})
	if err != nil {
		if col != nil {
			col.finish()
		}
		return nil, nil, err
	}
	res, err := measure(r)
	var selfs map[string][]time.Duration
	if col != nil {
		col.finish()
		selfs = col.selfTimes()
	}
	r.close()
	return res, selfs, err
}

// tracedRun measures the workload untraced and traced, each over half
// the window, then replays its inputs through the in-process and
// single-node rungs, and reports the per-layer metrics.
func tracedRun(cfg config) (*result, error) {
	cfg.seconds /= 2
	plain, _, err := clusterPass(cfg, false)
	if err != nil {
		return nil, err
	}
	report(cfg.wl, plain)
	traced, selfs, err := clusterPass(cfg, true)
	if err != nil {
		return nil, err
	}
	in := workloadInputs(cfg.wl, cfg.seed)
	dir, err := runDir(cfg, "ladder")
	if err != nil {
		return nil, err
	}
	lad, err := runLadder(in, dir)
	if err != nil {
		return nil, err
	}
	if dir, err = runDir(cfg, "serve"); err != nil {
		return nil, err
	}
	srv, err := runServeRung(cfg, in, dir)
	if err != nil {
		return nil, err
	}
	m, err := layerMetrics(cfg.wl, lad, srv, plain, traced, selfs)
	if err != nil {
		return nil, err
	}
	printMetrics(cfg.wl, perLayer, m)
	return &result{
		Correct:   true,
		Attempted: plain.attempts + traced.attempts,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// build checks that vals holds exactly the specs' metrics and attaches
// their units.
func build(specs []metricSpec, vals map[string]float64) (map[string]metric, error) {
	if len(vals) != len(specs) {
		return nil, fmt.Errorf("%d metric values for %d metrics", len(vals), len(specs))
	}
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s has no value", s.name)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, nil
}

// e2eMetrics maps one untraced window onto the end-to-end metrics.
func e2eMetrics(res *windowResult, setupS, rssMB, cpuMsPerOp float64) (map[string]metric, error) {
	return build(endToEnd, map[string]float64{
		"p50_ms":        ms(res.fg.p50),
		"p90_ms":        ms(res.fg.p90),
		"ops_per_s":     res.ops,
		"cpu_ms_per_op": cpuMsPerOp,
		"setup_s":       setupS,
		"rss_peak_mb":   rssMB,
	})
}

// layerMetrics maps the traced run's measurements onto the per-layer
// metrics.
func layerMetrics(wl workload, l *ladder, s *serveRung, plain, traced *windowResult, selfs map[string][]time.Duration) (map[string]metric, error) {
	serveFg := s.estimateMs
	if wl.foreground() == "ingest_ack" {
		serveFg = s.ingestAckMs
	}
	d := plain.after.sub(plain.before)
	v := map[string]float64{
		"xi.sum_signs_ns_per_id":          l.xiNsPerID,
		"dyadic.cover_ns_per_rect":        l.coverNsPerRec,
		"kernel.us_per_record":            l.kernelUsPerRec,
		"estimator.apply_us":              l.applyUs,
		"estimator.apply_x_below":         ratio(l.applyUs, l.kernelUsPerRec),
		"estimator.estimate_warm_us":      l.warmUs,
		"estimator.estimate_cold_us":      l.coldUs,
		"estimator.estimate_cold_x_below": ratio(l.coldUs, l.warmUs),
		"estimator.gather_us":             l.gatherUs,
		"estimator.gather_x_below":        ratio(l.gatherUs, l.coldUs),
		"estimator.marshal_us":            l.marshalUs,
		"estimator.snapshot_kb":           l.snapKB,
		"wal.append_us":                   l.walAppendUs,
		"wal.append_x_below":              ratio(l.walAppendUs, l.applyUs),
		"wal.records_per_commit":          l.walRecsPerCommit,
		"wal.bytes_per_record":            l.walBytesPerRec,
		"ingest.frame_us_per_batch":       l.frameUsPerBatch,
		"ingest.send_block_ms":            s.sendBlockMs,
		"serve.update_ms":                 s.updateMs,
		"serve.update_x_below":            ratio(s.updateMs*1e3, l.walAppendUs),
		"serve.estimate_ms":               s.estimateMs,
		"serve.estimate_x_below":          ratio(s.estimateMs*1e3, l.warmUs),
		"serve.snapshot_ms":               s.snapshotMs,
		"serve.snapshot_x_below":          ratio(s.snapshotMs*1e3, l.marshalUs),
		"serve.revalidate_ms":             s.revalidateMs,
		"serve.ingest_ack_ms":             s.ingestAckMs,
		"serve.ingest_ack_x_below":        ratio(s.ingestAckMs*1e3, l.frameUsPerBatch+batchSize*l.applyUs),
		"fanout.x_below":                  ratio(ms(plain.fg.p50), serveFg),
		"cluster.readcache_hit_ratio":     ratio(d.readcacheHit, d.readcacheHit+d.readcacheMiss),
		"cluster.viewcache_hit_ratio":     ratio(d.viewcacheHit, d.viewcacheHit+d.viewcacheMiss),
		"cluster.snapshot_gets_per_read":  ratio(d.snapshotGets, d.estimates),
		"cluster.snapshot_304_share":      ratio(d.snapshot304, d.snapshotGets),
		"trace.overhead.p50_ms":           ms(traced.fg.p50) - ms(plain.fg.p50),
		"trace.overhead.p99_ms":           ms(traced.fg.p99) - ms(plain.fg.p99),
		"trace.overhead.ops_per_s":        traced.ops - plain.ops,
	}
	for _, n := range spanNames {
		ds := append([]time.Duration(nil), selfs[n]...)
		sortDurations(ds)
		if len(ds) == 0 {
			logf("span %s: no samples", n)
		}
		v["span."+n+".self_ms.p50"] = ms(quantile(ds, 0.50))
		v["span."+n+".self_ms.p99"] = ms(quantile(ds, 0.99))
	}
	return build(perLayer, v)
}

// report prints one window's operation classes under the names the
// workload descriptions use (estimate_p50_ms, updates_per_s, ...), with
// sample counts and the failure fraction.
func report(wl workload, res *windowResult) {
	line := func(prefix, rate string, st opStats) {
		fmt.Printf("%s %s_p50_ms=%.4f ms %s_p90_ms=%.4f ms %s_p99_ms=%.4f ms %s=%.2f 1/s (n=%d, failed=%d)\n",
			wl.name, prefix, ms(st.p50), prefix, ms(st.p90), prefix, ms(st.p99), rate, st.perSecond, st.n, st.failed)
		if st.n*3/4 < 1000 {
			logf("%s: fewer than 10 samples beyond p99 (n=%d)", prefix, st.n)
		}
	}
	if wl.foreground() == "ingest_ack" {
		line("ingest_ack", "ingest_records_per_s", res.fg)
	} else {
		line("estimate", "estimates_per_s", res.fg)
	}
	if wl.updateClients > 0 {
		line("update", "updates_per_s", res.updates)
	}
	fmt.Printf("%s fail_frac=%.6f (attempted=%d, failed=%d, window=%.3fs)\n",
		wl.name, ratio(float64(res.failed), float64(res.attempts)), res.attempts, res.failed, res.w.seconds())
}

// printMetrics prints every metric by name with its unit, and for the
// per-layer ones the end-to-end metric each should move.
func printMetrics(wl workload, specs []metricSpec, m map[string]metric) {
	for _, s := range specs {
		line := fmt.Sprintf("%-36s %14.4f %-5s", s.name, m[s.name].Value, s.unit)
		if mv := moves(s.name); mv != "" {
			line += "  -> " + mv
		}
		fmt.Printf("%s %s\n", wl.name, strings.TrimRight(line, " "))
	}
}
