package main

import "strings"

// The benchmark's fixed vocabulary: its workloads, and the metrics each
// run reports. BENCHMARK.json at the repository root lists the same
// names; spec_test.go keeps the two in step.

// workload is one traffic mix driven against the cluster by two
// closed-loop clients.
type workload struct {
	name string
	// estimateClients, updateClients and ingestClients size the client
	// set; every workload has two clients in total.
	estimateClients, updateClients, ingestClients int
	// checkValues requires every served estimate to equal the in-process
	// reference's value (the estimators do not change during the run).
	checkValues bool
}

// workloads are the benchmark's traffic mixes, by name.
var workloads = map[string]workload{
	// A preloaded, quiet cluster read by two estimate clients: every read
	// revalidates its partitions (304) and hits the router's view memo.
	"read_hot": {name: "read_hot", estimateClients: 2, checkValues: true},
	// One JSON update client beside one estimate client on the same
	// targets: writes invalidate partition ETags, so reads take the miss
	// path (snapshot transfer, restore, merge, cold estimate).
	"mixed": {name: "mixed", estimateClients: 1, updateClients: 1},
	// Two spatial-ingest/1 sessions streaming 32-record batches onto the
	// join targets, no reads.
	"ingest": {name: "ingest", ingestClients: 2},
}

// foreground names the operation whose latency a workload reports.
func (w workload) foreground() string {
	if w.ingestClients > 0 {
		return "ingest_ack"
	}
	return "estimate"
}

// metricSpec is one reported metric: its name and unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, on every
// workload. Latencies are of the workload's foreground operation
// (estimate on read_hot and mixed, batch Send to ack on ingest);
// ops_per_s counts every acknowledged client operation (estimates plus
// updates on mixed, records on ingest), and cpu_ms_per_op divides the
// nodes' CPU time by the same operations: the work a request costs,
// which queueing and stolen CPU time do not inflate the way they
// inflate the wall-clock metrics. The tail bounded here is p90: p99 is
// printed, but on a shared virtual machine it measures the host's
// preemption bursts (whole runs read 2.5 times the usual p99 while p50
// moved a fifth), which no bound on a program change can tolerate.
var endToEnd = []metricSpec{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// spanNames are the server spans whose self time the traced run folds.
var spanNames = []string{
	"fanout.snapshot", "fanout.update", "fanout.ingest",
	"wal.commit", "ingest.batch", "view.rebuild",
}

// perLayer are the metrics every traced run reports, on every workload.
// A "_x_below" metric is the rung's multiple of the rung below it on the
// same path (see README.md for the ladders).
var perLayer = func() []metricSpec {
	out := []metricSpec{
		{"xi.sum_signs_ns_per_id", "ns"},
		{"dyadic.cover_ns_per_rect", "ns"},
		{"kernel.us_per_record", "us"},
		{"estimator.apply_us", "us"},
		{"estimator.apply_x_below", "x"},
		{"estimator.estimate_warm_us", "us"},
		{"estimator.estimate_cold_us", "us"},
		{"estimator.estimate_cold_x_below", "x"},
		{"estimator.gather_us", "us"},
		{"estimator.gather_x_below", "x"},
		{"estimator.marshal_us", "us"},
		{"estimator.snapshot_kb", "KB"},
		{"wal.append_us", "us"},
		{"wal.append_x_below", "x"},
		{"wal.records_per_commit", "count"},
		{"wal.bytes_per_record", "B"},
		{"ingest.frame_us_per_batch", "us"},
		{"ingest.send_block_ms", "ms"},
		{"serve.update_ms", "ms"},
		{"serve.update_x_below", "x"},
		{"serve.estimate_ms", "ms"},
		{"serve.estimate_x_below", "x"},
		{"serve.snapshot_ms", "ms"},
		{"serve.snapshot_x_below", "x"},
		{"serve.revalidate_ms", "ms"},
		{"serve.ingest_ack_ms", "ms"},
		{"serve.ingest_ack_x_below", "x"},
		{"fanout.x_below", "x"},
		{"cluster.readcache_hit_ratio", "ratio"},
		{"cluster.viewcache_hit_ratio", "ratio"},
		{"cluster.snapshot_gets_per_read", "count"},
		{"cluster.snapshot_304_share", "ratio"},
	}
	for _, n := range spanNames {
		out = append(out,
			metricSpec{"span." + n + ".self_ms.p50", "ms"},
			metricSpec{"span." + n + ".self_ms.p99", "ms"})
	}
	return append(out,
		metricSpec{"trace.overhead.p50_ms", "ms"},
		metricSpec{"trace.overhead.p99_ms", "ms"},
		metricSpec{"trace.overhead.ops_per_s", "1/s"})
}()

// layerMoves maps per-layer metric name prefixes to the end-to-end
// metric (and workload) a change at that layer should move. The first
// matching prefix wins.
var layerMoves = []struct{ prefix, moves string }{
	{"xi.", "ops_per_s on ingest"},
	{"dyadic.", "ops_per_s on ingest"},
	{"kernel.", "ops_per_s on ingest"},
	{"estimator.apply", "ops_per_s on ingest; ops_per_s (updates) on mixed"},
	{"estimator.estimate_warm", "p50_ms on read_hot"},
	{"estimator.estimate_cold", "p50_ms on mixed"},
	{"estimator.gather", "p50_ms on mixed"},
	{"estimator.", "p50_ms on read_hot and mixed"},
	{"wal.", "ops_per_s (updates) on mixed; p50_ms on ingest"},
	{"ingest.", "ops_per_s on ingest"},
	{"serve.update", "ops_per_s (updates) on mixed"},
	{"serve.ingest_ack", "p50_ms on ingest"},
	{"serve.", "p50_ms on read_hot and mixed"},
	{"fanout.", "p50_ms on every workload"},
	{"cluster.", "p50_ms on read_hot against mixed"},
	{"span.fanout.snapshot", "p50_ms on read_hot and mixed"},
	{"span.fanout.update", "ops_per_s (updates) on mixed"},
	{"span.view.rebuild", "p50_ms on mixed"},
	{"span.", "p50_ms on ingest"},
}

// moves returns what a per-layer metric should move, "" for an
// end-to-end metric or the tracing overhead.
func moves(name string) string {
	if strings.HasPrefix(name, "trace.") {
		return ""
	}
	for _, lm := range layerMoves {
		if strings.HasPrefix(name, lm.prefix) {
			return lm.moves
		}
	}
	return ""
}

// validName reports whether s is a well-formed metric or workload name:
// 1 to 64 letters, digits, '_', '.' and '-', starting with a letter or
// digit.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '_' || c == '.' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}
