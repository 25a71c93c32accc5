package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

// writeDoc dumps a document to a temp file and returns the path.
func writeDoc(t *testing.T, dir, name string, d *benchfmt.Document) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func rec(name string, metrics map[string]float64) benchfmt.Record {
	return benchfmt.Record{Name: name, Iterations: 1, Metrics: metrics}
}

func TestCompareDirections(t *testing.T) {
	oldDoc := benchfmt.NewDocument()
	oldDoc.Benchmarks = []benchfmt.Record{
		rec("Load/steady/estimate", map[string]float64{"p99_ns": 1000, "ops_per_sec": 500}),
	}
	// p99 +60% (regression at 25%), throughput -60% (regression).
	newDoc := benchfmt.NewDocument()
	newDoc.Benchmarks = []benchfmt.Record{
		rec("Load/steady/estimate", map[string]float64{"p99_ns": 1600, "ops_per_sec": 200}),
	}
	comps, _, _ := compareDocs(oldDoc, newDoc, nil, 25, 0)
	if len(comps) != 2 {
		t.Fatalf("got %d comparisons, want 2: %+v", len(comps), comps)
	}
	for _, c := range comps {
		if !c.regressed {
			t.Errorf("%s: not flagged (delta %+.1f%%)", c.key, c.deltaPct)
		}
	}
	// Within threshold: +60% tolerance passes both.
	comps, _, _ = compareDocs(oldDoc, newDoc, nil, 61, 0)
	for _, c := range comps {
		if c.regressed {
			t.Errorf("%s: flagged despite threshold 61%% (delta %+.1f%%)", c.key, c.deltaPct)
		}
	}
	// Improvements never regress: swap old and new.
	comps, _, _ = compareDocs(newDoc, oldDoc, nil, 25, 0)
	for _, c := range comps {
		if c.regressed {
			t.Errorf("%s: improvement flagged as regression", c.key)
		}
	}
}

func TestMissingBenchmarksAreNotesNotFailures(t *testing.T) {
	oldDoc := benchfmt.NewDocument()
	oldDoc.Benchmarks = []benchfmt.Record{rec("OnlyOld", map[string]float64{"p99_ns": 1})}
	newDoc := benchfmt.NewDocument()
	newDoc.Benchmarks = []benchfmt.Record{rec("OnlyNew", map[string]float64{"p99_ns": 1})}
	comps, onlyOld, onlyNew := compareDocs(oldDoc, newDoc, nil, 25, 0)
	if len(comps) != 0 {
		t.Errorf("unmatched benchmarks produced comparisons: %+v", comps)
	}
	if len(onlyOld) != 1 || len(onlyNew) != 1 {
		t.Errorf("onlyOld=%v onlyNew=%v, want one each", onlyOld, onlyNew)
	}
}

func TestMetricFilterAndNoiseFloor(t *testing.T) {
	oldDoc := benchfmt.NewDocument()
	oldDoc.Benchmarks = []benchfmt.Record{
		rec("B", map[string]float64{"p99_ns": 100, "p50_ns": 10, "errors": 0}),
	}
	newDoc := benchfmt.NewDocument()
	newDoc.Benchmarks = []benchfmt.Record{
		rec("B", map[string]float64{"p99_ns": 1000, "p50_ns": 1000, "errors": 3}),
	}
	comps, _, _ := compareDocs(oldDoc, newDoc, []string{"p99_ns"}, 25, 0)
	if len(comps) != 1 || comps[0].metric != "p99_ns" || !comps[0].regressed {
		t.Fatalf("metric filter: got %+v", comps)
	}
	// Noise floor: both sides under min-base are skipped; a zero baseline
	// (errors 0 -> 3) never divides by zero and never regresses.
	comps, _, _ = compareDocs(oldDoc, newDoc, nil, 25, 5000)
	for _, c := range comps {
		if c.metric == "p50_ns" || c.metric == "p99_ns" {
			t.Errorf("%s compared below noise floor", c.metric)
		}
		if c.regressed {
			t.Errorf("%s regressed with zero/sub-floor baseline", c.metric)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldDoc := benchfmt.NewDocument()
	oldDoc.Benchmarks = []benchfmt.Record{rec("E", map[string]float64{"p99_ns": 1000})}
	newDoc := benchfmt.NewDocument()
	newDoc.Benchmarks = []benchfmt.Record{rec("E", map[string]float64{"p99_ns": 5000})}
	oldPath := writeDoc(t, dir, "old.json", oldDoc)
	newPath := writeDoc(t, dir, "new.json", newDoc)

	var out bytes.Buffer
	n, err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "25"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output missing REGRESSION line:\n%s", out.String())
	}

	out.Reset()
	n, err = run([]string{"-old", oldPath, "-new", oldPath}, &out)
	if err != nil || n != 0 {
		t.Fatalf("self-diff: n=%d err=%v\n%s", n, err, out.String())
	}
}

// TestAgainstCommittedArtifact pins the CI contract: the committed
// BENCH_PR9.json must diff cleanly against itself, whatever its
// contents.
func TestAgainstCommittedArtifact(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_PR9.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no committed artifact: %v", err)
	}
	var out bytes.Buffer
	n, err := run([]string{"-old", path, "-new", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("artifact regresses against itself:\n%s", out.String())
	}
}

// TestRatioGate pins the same-run ratio mode: runs pair in order, the
// median of the per-pair ratios is gated, one outlier pair cannot flip
// it, and mismatched run counts are an error rather than a verdict.
func TestRatioGate(t *testing.T) {
	doc := func(pairs ...[2]float64) *benchfmt.Document {
		d := benchfmt.NewDocument()
		for _, p := range pairs {
			d.Benchmarks = append(d.Benchmarks,
				rec("BenchmarkFull", map[string]float64{"ns/op": p[0]}),
				rec("BenchmarkBare", map[string]float64{"ns/op": p[1]}))
		}
		return d
	}
	var out bytes.Buffer
	// Ratios 1.05, 1.02, 1.60 (one noisy pair), 1.04, 1.08: median 1.05.
	d := doc([2]float64{105, 100}, [2]float64{102, 100}, [2]float64{160, 100}, [2]float64{104, 100}, [2]float64{108, 100})
	if n, err := ratioGate(d, "BenchmarkFull", "BenchmarkBare", 10, &out); err != nil || n != 0 {
		t.Fatalf("median 1.05 against 1.10: %d, %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "median ns/op ratio 1.050 over 5 pairs") {
		t.Fatalf("report lacks the median:\n%s", out.String())
	}
	// Even pair counts take the mean of the middle two: 1.12 and 1.16.
	d = doc([2]float64{112, 100}, [2]float64{116, 100}, [2]float64{90, 100}, [2]float64{130, 100})
	if n, err := ratioGate(d, "BenchmarkFull", "BenchmarkBare", 10, &out); err != nil || n != 1 {
		t.Fatalf("median 1.14 against 1.10 passed: %d, %v", n, err)
	}
	d.Benchmarks = d.Benchmarks[:len(d.Benchmarks)-1]
	if _, err := ratioGate(d, "BenchmarkFull", "BenchmarkBare", 10, &out); err == nil {
		t.Fatal("unpaired run accepted")
	}
	// Through the flag parser, from a file.
	path := writeDoc(t, t.TempDir(), "gate.json", doc([2]float64{100, 100}))
	if n, err := run([]string{"-new", path, "-num", "BenchmarkFull", "-den", "BenchmarkBare", "-threshold", "10"}, &out); err != nil || n != 0 {
		t.Fatalf("run in ratio mode: %d, %v", n, err)
	}
}
