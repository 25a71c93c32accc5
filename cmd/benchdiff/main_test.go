package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// benchText renders interleaved result lines of BenchmarkFull and
// BenchmarkBare, one pair per (full, bare) ns/op value, the way the CI
// loops print them.
func benchText(pairs ...[2]float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro/cmd/spatialserve\n")
	for _, p := range pairs {
		fmt.Fprintf(&b, "BenchmarkFull-2   \t    3000\t  %.0f ns/op\t  512 B/op\t  7 allocs/op\n", p[0])
		fmt.Fprintf(&b, "BenchmarkBare-2   \t    3000\t  %.0f ns/op\t  480 B/op\t  5 allocs/op\nPASS\n", p[1])
	}
	return b.String()
}

// TestNsPerOp pins the parser: ns/op in order per name, GOMAXPROCS
// suffix dropped, other units and non-result lines ignored.
func TestNsPerOp(t *testing.T) {
	runs, err := nsPerOp(strings.NewReader(benchText([2]float64{105, 100}, [2]float64{102, 99}) +
		"BenchmarkFull\nBenchmarkFull-2 --- FAIL\nok  \trepro/cmd/spatialserve\t1.2s\n" +
		"BenchmarkSub/case-8 10 7.5 ns/op 3 MB/s\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"BenchmarkFull":     {105, 102},
		"BenchmarkBare":     {100, 99},
		"BenchmarkSub/case": {7.5},
	}
	if fmt.Sprint(runs) != fmt.Sprint(want) {
		t.Fatalf("parsed %v, want %v", runs, want)
	}
}

// TestRatioGate pins the same-run ratio gate on `go test -bench` text:
// runs pair in order, the median of the per-pair ratios is gated, one
// outlier pair cannot flip it, and mismatched run counts are an error
// rather than a verdict.
func TestRatioGate(t *testing.T) {
	gate := func(text string, out *bytes.Buffer) (int, error) {
		runs, err := nsPerOp(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return ratioGate(runs, "BenchmarkFull", "BenchmarkBare", 10, out)
	}
	var out bytes.Buffer
	// Ratios 1.05, 1.02, 1.60 (one noisy pair), 1.04, 1.08: median 1.05.
	text := benchText([2]float64{105, 100}, [2]float64{102, 100}, [2]float64{160, 100}, [2]float64{104, 100}, [2]float64{108, 100})
	if n, err := gate(text, &out); err != nil || n != 0 {
		t.Fatalf("median 1.05 against 1.10: %d, %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "median ns/op ratio 1.050 over 5 pairs") {
		t.Fatalf("report lacks the median:\n%s", out.String())
	}
	// Even pair counts take the mean of the middle two: 1.12 and 1.16.
	text = benchText([2]float64{112, 100}, [2]float64{116, 100}, [2]float64{90, 100}, [2]float64{130, 100})
	if n, err := gate(text, &out); err != nil || n != 1 {
		t.Fatalf("median 1.14 against 1.10 passed: %d, %v", n, err)
	}
	unpaired := text + "BenchmarkFull-2 3000 120 ns/op\n"
	if _, err := gate(unpaired, &out); err == nil {
		t.Fatal("unpaired run accepted")
	}
	if _, err := gate("PASS\n", &out); err == nil {
		t.Fatal("input without runs accepted")
	}
}

// TestRunEndToEnd drives the command's flag parsing and stdin reading:
// a pass, a regression, and the required flags.
func TestRunEndToEnd(t *testing.T) {
	args := []string{"-num", "BenchmarkFull", "-den", "BenchmarkBare", "-threshold", "10"}
	var out bytes.Buffer
	if n, err := run(args, strings.NewReader(benchText([2]float64{100, 100})), &out); err != nil || n != 0 {
		t.Fatalf("equal pair: %d, %v\n%s", n, err, out.String())
	}
	out.Reset()
	n, err := run(args, strings.NewReader(benchText([2]float64{150, 100}, [2]float64{130, 100})), &out)
	if err != nil || n != 1 || !strings.Contains(out.String(), "REGRESSION median ratio 1.400 exceeds 1.100") {
		t.Fatalf("median 1.40 against 1.10: %d, %v\n%s", n, err, out.String())
	}
	if _, err := run([]string{"-num", "BenchmarkFull"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing -den accepted")
	}
}
