// Command benchdiff gates one benchmark against another from the same
// `go test -bench` run. It reads the raw benchmark text on stdin, pairs
// the i-th result of -num with the i-th result of -den, and fails when
// the median of the per-pair ns/op ratios exceeds 1 + -threshold/100 (so
// -threshold 10 fails a median above 1.10). Run the two benchmarks
// interleaved so each pair shares the machine's state; a median of pairs
// then shrugs off one slow run on either side, which a ratio of two bests
// or two means does not. The gate is relative, so the machine's speed
// does not matter.
//
// Usage:
//
//	for i in $(seq 10); do
//	    ./a.test -test.run='^$' -test.bench='^BenchmarkA$'
//	    ./b.test -test.run='^$' -test.bench='^BenchmarkB$'
//	done | benchdiff -num BenchmarkA -den BenchmarkB -threshold 10
//
// Exit status is 1 when the median ratio is over the bound and 2 when
// the input cannot be gated (no runs, or unpaired runs).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// nsPerOp collects the ns/op of every result line in `go test -bench`
// text, in order, by benchmark name. A result line reads
// "BenchmarkName-P  N  v1 unit1  v2 unit2 ..."; the -P GOMAXPROCS suffix
// is dropped from the name, and a line whose iteration count does not
// parse is not a result.
func nsPerOp(r io.Reader) (map[string][]float64, error) {
	runs := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				runs[name] = append(runs[name], v)
			}
		}
	}
	return runs, sc.Err()
}

// ratioGate pairs the runs of num and den in order and returns 1 when
// the median per-pair ns/op ratio exceeds 1 + threshold/100, 0
// otherwise.
func ratioGate(runs map[string][]float64, num, den string, threshold float64, out io.Writer) (int, error) {
	const metric = "ns/op"
	limit := 1 + threshold/100
	nums, dens := runs[num], runs[den]
	if len(nums) == 0 || len(nums) != len(dens) {
		return 0, fmt.Errorf("need as many %s runs of %s (%d) as of %s (%d), at least one", metric, num, len(nums), den, len(dens))
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

// run parses the flags, reads the benchmark text from in and gates it,
// returning 1 for a regression and 0 for a pass.
func run(args []string, in io.Reader, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(out)
	num := fs.String("num", "", "numerator benchmark name (required; runs paired in order with -den)")
	den := fs.String("den", "", "denominator benchmark name (required)")
	threshold := fs.Float64("threshold", 25, "how far above 1 the median ratio may go, in percent")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *num == "" || *den == "" {
		fs.Usage()
		return 0, fmt.Errorf("both -num and -den are required")
	}
	runs, err := nsPerOp(in)
	if err != nil {
		return 0, fmt.Errorf("reading benchmark output: %w", err)
	}
	return ratioGate(runs, *num, *den, *threshold, out)
}

func main() {
	regressions, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if regressions > 0 {
		os.Exit(1)
	}
}
