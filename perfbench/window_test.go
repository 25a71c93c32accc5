package main

import (
	"errors"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, ms(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, ms(50)}, {0.99, ms(99)}, {1, ms(100)}, {0, ms(1)}, {0.001, ms(1)}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100ms, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := quantile([]time.Duration{ms(7)}, 0.99); got != ms(7) {
		t.Errorf("quantile of one sample = %v, want 7ms", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// TestWindowAccounting pins what counts: warm-up operations and
// operations still in flight at the close are neither samples nor
// failures; failures inside the window count against attempts.
func TestWindowAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := window{from: t0, to: t0.Add(10 * time.Second)}
	l := newOpLog(w)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }

	l.record(at(-0.5), at(0.2), 1, nil)                  // started in warm-up
	l.record(at(-0.5), at(0.2), 1, errors.New("x"))      // failed in warm-up
	l.record(at(9.9), at(10.3), 1, nil)                  // in flight at close
	l.record(at(9.9), at(10.3), 1, errors.New("cancel")) // cancelled at close
	l.record(at(1), at(1.002), 1, nil)
	l.record(at(2), at(2.004), 32, nil)
	l.record(at(3), at(3.5), 1, errors.New("boom"))

	st := l.stats()
	if st.n != 2 || st.failed != 1 {
		t.Fatalf("n=%d failed=%d, want 2 and 1", st.n, st.failed)
	}
	if l.allUnits != 35 {
		t.Errorf("allUnits = %d, want 35 (every success, warm-up and close included)", l.allUnits)
	}
	if !w.contains(at(0), at(10)) || w.contains(at(0), at(10.001)) || w.contains(at(-0.001), at(1)) {
		t.Error("window bounds are not inclusive of exactly [from, to]")
	}
}

// TestStatsSliceMedians checks that the slowest quarter of one-second
// slices is dropped and p50 and throughput are medians over the rest, so
// one slow stretch does not move them.
func TestStatsSliceMedians(t *testing.T) {
	t0 := time.Unix(2000, 0)
	w := window{from: t0, to: t0.Add(9 * time.Second)}
	l := newOpLog(w)
	for s := 0; s < 9; s++ {
		lat, n := 2*time.Millisecond, 100
		if s == 4 { // one stalled second: few, slow operations
			lat, n = 80*time.Millisecond, 10
		}
		for i := 0; i < n; i++ {
			end := t0.Add(time.Duration(s)*time.Second + time.Duration(i+1)*(time.Second/time.Duration(n+1)))
			l.record(end.Add(-lat), end, 1, nil)
		}
	}
	st := l.stats()
	if st.p50 != 2*time.Millisecond || st.p90 != 2*time.Millisecond {
		t.Errorf("p50 = %v and p90 = %v, want 2ms", st.p50, st.p90)
	}
	if st.perSecond != 100 {
		t.Errorf("perSecond = %v, want 100", st.perSecond)
	}
	if st.p99 != 2*time.Millisecond {
		t.Errorf("p99 = %v, want 2ms (the stalled slice is dropped)", st.p99)
	}
	if st.n != 810 {
		t.Errorf("n = %d, want 810", st.n)
	}
}

func TestIngestTimingCumulativeAcks(t *testing.T) {
	t0 := time.Unix(3000, 0)
	l := newOpLog(window{from: t0, to: t0.Add(time.Minute)})
	it := &ingestTiming{log: l}
	for i := 0; i < 4; i++ {
		it.starts = append(it.starts, t0.Add(time.Duration(i)*time.Millisecond))
	}
	it.onAck(2, t0.Add(10*time.Millisecond)) // acks batches 1 and 2
	it.onAck(2, t0.Add(11*time.Millisecond)) // duplicate ack: no new samples
	it.onAck(9, t0.Add(20*time.Millisecond)) // beyond what was sent: stops at 4
	st := l.stats()
	if st.n != 4 || it.acked != 4 {
		t.Fatalf("n=%d acked=%d, want 4 and 4", st.n, it.acked)
	}
	for _, op := range l.ops {
		if op.units != batchSize {
			t.Errorf("batch recorded %d units, want %d", op.units, batchSize)
		}
	}
	if l.ops[0].lat != 10*time.Millisecond || l.ops[3].lat != 17*time.Millisecond {
		t.Errorf("latencies %v and %v, want 10ms and 17ms", l.ops[0].lat, l.ops[3].lat)
	}
}
