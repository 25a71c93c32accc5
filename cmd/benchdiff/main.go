// Command benchdiff compares two benchfmt JSON artifacts (the committed
// BENCH_*.json trajectory files and fresh runs of cmd/benchjson or
// cmd/spatialload) and flags per-benchmark regressions beyond a
// threshold, exiting non-zero when any is found. CI runs it as a soft
// gate: a regression marks the job for human attention without blocking
// the merge outright.
//
// Records are matched by (pkg, name). Latency-class metrics (ns/op,
// p50_ns, p99_ns, ...) regress when the new value exceeds the old by
// more than -threshold percent; throughput-class metrics (ops_per_sec)
// regress when the new value falls short by more than the threshold.
// Benchmarks present on only one side are reported but never fail the
// run - artifacts grow new benchmarks every PR, and environment changes
// can drop one.
//
// Same-run ratio mode gates one benchmark against another from the same
// artifact instead of against a baseline file: with -num and -den set,
// the i-th run of -num pairs with the i-th run of -den, and the run fails
// when the median of the per-pair ns/op ratios exceeds 1 + -threshold/100
// (so -threshold 10 fails a median above 1.10). Run the two benchmarks
// interleaved so each pair shares the machine's state; a median of pairs
// then shrugs off one slow run on either side, which a ratio of two bests
// or two means does not.
//
// Usage:
//
//	benchdiff -old BENCH_PR9.json -new fresh.json -threshold 30
//	benchdiff -new gate.json -num BenchmarkA -den BenchmarkB -threshold 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/benchfmt"
)

// comparison is one metric's old-vs-new verdict.
type comparison struct {
	key        string // "pkg name metric"
	metric     string
	oldV, newV float64
	deltaPct   float64 // signed: positive = got worse
	regressed  bool
}

// higherIsBetter reports the metric's improvement direction: throughput
// metrics regress downward, everything else (latencies, allocations,
// error counts) regresses upward.
func higherIsBetter(metric string) bool {
	return strings.Contains(metric, "ops_per_sec") || strings.Contains(metric, "ops/s")
}

// compareDocs diffs the metric sets of matching records. onlyMetrics,
// when non-empty, restricts the comparison to those metric names.
// minBase suppresses comparisons whose baseline value is below it -
// sub-microsecond latencies and near-zero counters are noise, not
// signal. Returns the comparisons plus the names present on one side
// only.
func compareDocs(oldDoc, newDoc *benchfmt.Document, onlyMetrics []string, threshold, minBase float64) (comps []comparison, onlyOld, onlyNew []string) {
	type key struct{ pkg, name string }
	oldBy := make(map[key]benchfmt.Record)
	for _, r := range oldDoc.Benchmarks {
		oldBy[key{r.Pkg, r.Name}] = r
	}
	newBy := make(map[key]benchfmt.Record)
	for _, r := range newDoc.Benchmarks {
		newBy[key{r.Pkg, r.Name}] = r
	}
	wanted := func(m string) bool {
		if len(onlyMetrics) == 0 {
			return true
		}
		for _, w := range onlyMetrics {
			if m == w {
				return true
			}
		}
		return false
	}
	for k, oldRec := range oldBy {
		newRec, ok := newBy[k]
		if !ok {
			onlyOld = append(onlyOld, k.pkg+" "+k.name)
			continue
		}
		for metric, oldV := range oldRec.Metrics {
			newV, ok := newRec.Metrics[metric]
			if !ok || !wanted(metric) {
				continue
			}
			if math.Abs(oldV) < minBase && math.Abs(newV) < minBase {
				continue
			}
			c := comparison{
				key:    strings.TrimSpace(k.pkg + " " + k.name + " " + metric),
				metric: metric, oldV: oldV, newV: newV,
			}
			if oldV != 0 {
				if higherIsBetter(metric) {
					c.deltaPct = (oldV - newV) / oldV * 100
				} else {
					c.deltaPct = (newV - oldV) / oldV * 100
				}
				c.regressed = c.deltaPct > threshold
			}
			comps = append(comps, c)
		}
	}
	for k := range newBy {
		if _, ok := oldBy[k]; !ok {
			onlyNew = append(onlyNew, k.pkg+" "+k.name)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].key < comps[j].key })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return comps, onlyOld, onlyNew
}

// ratioGate runs the same-run ratio mode over doc and returns 1 when the
// median per-pair ns/op ratio of num to den exceeds 1 + threshold/100, 0
// otherwise.
func ratioGate(doc *benchfmt.Document, num, den string, threshold float64, out io.Writer) (int, error) {
	const metric = "ns/op"
	limit := 1 + threshold/100
	var nums, dens []float64
	for _, r := range doc.Benchmarks {
		v, ok := r.Metrics[metric]
		switch {
		case !ok:
		case r.Name == num:
			nums = append(nums, v)
		case r.Name == den:
			dens = append(dens, v)
		}
	}
	if len(nums) == 0 || len(nums) != len(dens) {
		return 0, fmt.Errorf("ratio mode needs as many %s runs of %s (%d) as of %s (%d), at least one", metric, num, len(nums), den, len(dens))
	}
	ratios := make([]float64, len(nums))
	for i := range nums {
		if dens[i] <= 0 {
			return 0, fmt.Errorf("run %d of %s has %s %v", i+1, den, metric, dens[i])
		}
		ratios[i] = nums[i] / dens[i]
		fmt.Fprintf(out, "pair %2d: %14.1f / %14.1f = %.3f\n", i+1, nums[i], dens[i], ratios[i])
	}
	sort.Float64s(ratios)
	med := (ratios[(len(ratios)-1)/2] + ratios[len(ratios)/2]) / 2
	fmt.Fprintf(out, "benchdiff: %s / %s median %s ratio %.3f over %d pairs (max %.3f)\n", num, den, metric, med, len(ratios), limit)
	if med > limit {
		fmt.Fprintf(out, "REGRESSION median ratio %.3f exceeds %.3f\n", med, limit)
		return 1, nil
	}
	return 0, nil
}

// readDoc loads one benchfmt artifact.
func readDoc(path string) (*benchfmt.Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchfmt.Document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// run executes the diff and returns the number of regressions.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(out)
	oldPath := fs.String("old", "", "baseline benchfmt JSON artifact (required)")
	newPath := fs.String("new", "", "candidate benchfmt JSON artifact (required)")
	threshold := fs.Float64("threshold", 25, "regression threshold in percent (ratio mode: how far above 1 the median ratio may go)")
	minBase := fs.Float64("min-base", 0, "skip comparisons where both values are below this (noise floor, metric units)")
	metricList := fs.String("metrics", "p99_ns,ops_per_sec,ns/op", "comma-separated metrics to compare (empty = all shared metrics)")
	verbose := fs.Bool("v", false, "print every comparison, not just regressions")
	num := fs.String("num", "", "ratio mode: numerator benchmark name (runs paired in order with -den)")
	den := fs.String("den", "", "ratio mode: denominator benchmark name")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *num != "" || *den != "" {
		if *num == "" || *den == "" || *newPath == "" {
			return 0, fmt.Errorf("ratio mode needs -new, -num and -den")
		}
		doc, err := readDoc(*newPath)
		if err != nil {
			return 0, err
		}
		return ratioGate(doc, *num, *den, *threshold, out)
	}
	if *oldPath == "" || *newPath == "" {
		fs.Usage()
		return 0, fmt.Errorf("both -old and -new are required")
	}
	oldDoc, err := readDoc(*oldPath)
	if err != nil {
		return 0, err
	}
	newDoc, err := readDoc(*newPath)
	if err != nil {
		return 0, err
	}
	var only []string
	if *metricList != "" {
		for _, m := range strings.Split(*metricList, ",") {
			if m = strings.TrimSpace(m); m != "" {
				only = append(only, m)
			}
		}
	}
	comps, onlyOld, onlyNew := compareDocs(oldDoc, newDoc, only, *threshold, *minBase)
	regressions := 0
	for _, c := range comps {
		if c.regressed {
			regressions++
			fmt.Fprintf(out, "REGRESSION %-60s %14.1f -> %14.1f  (%+.1f%% worse, threshold %.0f%%)\n",
				c.key, c.oldV, c.newV, c.deltaPct, *threshold)
		} else if *verbose {
			fmt.Fprintf(out, "ok         %-60s %14.1f -> %14.1f  (%+.1f%%)\n", c.key, c.oldV, c.newV, c.deltaPct)
		}
	}
	for _, k := range onlyOld {
		fmt.Fprintf(out, "note: %s only in %s\n", k, *oldPath)
	}
	for _, k := range onlyNew {
		fmt.Fprintf(out, "note: %s only in %s\n", k, *newPath)
	}
	fmt.Fprintf(out, "benchdiff: %d comparison(s), %d regression(s)\n", len(comps), regressions)
	return regressions, nil
}

func main() {
	regressions, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if regressions > 0 {
		os.Exit(1)
	}
}
