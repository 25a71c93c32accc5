package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// window is a run's measured interval. Clients start before it (the
// warm-up) and stop issuing at its end; an operation counts only if it
// both started and finished inside it. Operations still in flight when
// the window closes are neither samples nor failures: they are allowed
// to finish (so writes stay in the acked set) but are not judged.
type window struct {
	from, to time.Time
}

// contains reports whether an operation spanning [start, end] lies
// wholly inside the window.
func (w window) contains(start, end time.Time) bool {
	return !start.Before(w.from) && !end.After(w.to)
}

// seconds is the window's length.
func (w window) seconds() float64 { return w.to.Sub(w.from).Seconds() }

// opLog accumulates one operation class's outcomes inside a window:
// raw per-operation latencies (for exact percentiles), failures, and
// the work units (records, for ingest batches) the successes carried.
// Safe for concurrent use.
type opLog struct {
	w window

	mu     sync.Mutex
	ops    []sample
	failed int
	// allUnits sums the units of every successful operation, inside the
	// window or not.
	allUnits int
}

// sample is one successful operation inside the window.
type sample struct {
	end   time.Time
	lat   time.Duration
	units int
}

// sliceLen is the length of the window slices the statistics are taken
// over. A run drops its slowest quarter of slices (by throughput) before
// summarizing: seconds in which another tenant of the machine took the
// CPU say nothing about the program, and a stall that recurs more often
// than that (a checkpoint every 2 s hits half the slices) still shows.
const sliceLen = time.Second

// newOpLog returns an empty log judging operations against w.
func newOpLog(w window) *opLog { return &opLog{w: w} }

// record judges one finished operation: outside the window it only
// counts toward allUnits, inside it is a failure when err is set and a
// latency sample carrying units of work otherwise.
func (l *opLog) record(start, end time.Time, units int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		l.allUnits += units
	}
	if !l.w.contains(start, end) {
		return
	}
	if err != nil {
		l.failed++
		return
	}
	l.ops = append(l.ops, sample{end: end, lat: end.Sub(start), units: units})
}

// opStats is a finished log's summary.
type opStats struct {
	n, failed int
	// p50, p90 and perSecond (work units per second) are medians over
	// the kept slices; p99 is over every sample in them.
	p50, p90, p99 time.Duration
	perSecond     float64
}

// stats summarizes the log. Safe to call once the clients have stopped.
func (l *opLog) stats() opStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	nslices := max(int(l.w.to.Sub(l.w.from)/sliceLen), 1)
	slices := make([][]time.Duration, nslices)
	units := make([]float64, nslices)
	for _, op := range l.ops {
		i := min(int(op.end.Sub(l.w.from)/sliceLen), nslices-1)
		slices[i] = append(slices[i], op.lat)
		units[i] += float64(op.units)
	}
	sliceSecs := l.w.seconds() / float64(nslices)
	order := make([]int, nslices)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return units[order[a]] < units[order[b]] })
	var p50s, p90s, rates []float64
	var kept []time.Duration
	for _, i := range order[nslices/4:] {
		sl := slices[i]
		sortDurations(sl)
		if len(sl) > 0 {
			p50s = append(p50s, float64(quantile(sl, 0.50)))
			p90s = append(p90s, float64(quantile(sl, 0.90)))
		}
		rates = append(rates, units[i]/sliceSecs)
		kept = append(kept, sl...)
	}
	sortDurations(kept)
	return opStats{
		n:         len(l.ops),
		failed:    l.failed,
		p50:       time.Duration(medianFloat(p50s)),
		p90:       time.Duration(medianFloat(p90s)),
		p99:       quantile(kept, 0.99),
		perSecond: medianFloat(rates),
	}
}

// sortDurations sorts ds in place, ascending.
func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q of all samples at or below it. Zero
// for no samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// medianFloat returns the median of xs (the mean of the middle pair for
// an even count), zero for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
