package core

import (
	"testing"

	"repro/geo"
	"repro/internal/datagen"
)

// Equivalence properties of the batched update kernel and the sharded bulk
// loader: every path to the same multiset of inserts must produce
// bit-identical counters (sketches are deterministic linear projections of
// their input given the seed).

// allKinds are the five sketch kinds, in SPK1 code order.
var allKinds = []Kind{KindJoin, KindCE, KindPoint, KindBox, KindRange}

func equivPlan(t *testing.T, dims int) *Plan {
	t.Helper()
	logDom := make([]int, dims)
	for i := range logDom {
		logDom[i] = 8
	}
	return MustPlan(Config{
		Dims: dims, LogDomain: logDom, Instances: 48, Groups: 4, Seed: 1234,
	})
}

func equivRects(dims, n int, seed uint64) []geo.HyperRect {
	return datagen.MustRects(datagen.Spec{N: n, Dims: dims, Domain: 256, Seed: seed})
}

// corners maps each rectangle to the point a KindPoint sketch takes in its
// place: the lower end of its even dimensions, the upper end of its odd
// ones.
func corners(rects []geo.HyperRect) []geo.Point {
	pts := make([]geo.Point, len(rects))
	for k, r := range rects {
		pts[k] = make(geo.Point, len(r))
		for i, iv := range r {
			pts[k][i] = iv.Lo
			if i%2 == 1 {
				pts[k][i] = iv.Hi
			}
		}
	}
	return pts
}

// insertEach inserts rects into s one at a time, their corners for a
// KindPoint sketch.
func insertEach(s *Sketch, rects []geo.HyperRect) error {
	pts := corners(rects)
	for k, r := range rects {
		if err := update(s, r, pts[k], +1); err != nil {
			return err
		}
	}
	return nil
}

// insertBulk bulk-loads rects into s, their corners for a KindPoint
// sketch.
func insertBulk(s *Sketch, rects []geo.HyperRect) error {
	if s.kind == KindPoint {
		return s.InsertPoints(corners(rects))
	}
	return s.InsertAll(rects)
}

// sameSketch fails t unless got and want hold equal counts and counters.
func sameSketch(t *testing.T, what string, got, want *Sketch) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: %v counts differ: %d vs %d", what, want.kind, got.Count(), want.Count())
	}
	for i := range want.counters {
		if got.counters[i] != want.counters[i] {
			t.Fatalf("%s: %v counter %d differs: %d vs %d", what, want.kind, i, got.counters[i], want.counters[i])
		}
	}
}

// bulkMatchesSequential fails t unless bulk-loading rects into a fresh
// kind sketch of p gives exactly the counters and count of repeated
// inserts.
func bulkMatchesSequential(t *testing.T, kind Kind, p *Plan, rects []geo.HyperRect) {
	t.Helper()
	seq, bulk := p.NewSketch(kind), p.NewSketch(kind)
	if err := insertEach(seq, rects); err != nil {
		t.Fatal(err)
	}
	if err := insertBulk(bulk, rects); err != nil {
		t.Fatal(err)
	}
	sameSketch(t, "bulk load", bulk, seq)
}

// TestInsertAllMatchesSequential: the parallel join bulk path produces
// exactly the same counters and count as repeated inserts.
func TestInsertAllMatchesSequential(t *testing.T) {
	p := MustPlan(Config{Dims: 2, LogDomain: []int{6, 6}, Instances: 64, Groups: 4, Seed: 5})
	bulkMatchesSequential(t, KindJoin, p, datagen.MustRects(datagen.Spec{N: 700, Dims: 2, Domain: 64, Seed: 3}))
}

// TestCEInsertAllMatchesSequential: same property for a KindCE sketch.
func TestCEInsertAllMatchesSequential(t *testing.T) {
	bulkMatchesSequential(t, KindCE, equivPlan(t, 2), equivRects(2, 300, 21))
}

// TestRangeInsertAllMatchesSequential: same property for a KindRange
// sketch.
func TestRangeInsertAllMatchesSequential(t *testing.T) {
	bulkMatchesSequential(t, KindRange, equivPlan(t, 2), equivRects(2, 300, 22))
}

// TestPointBoxInsertAllMatchesSequential: same property for the two-sketch
// estimator's KindPoint and KindBox sketches.
func TestPointBoxInsertAllMatchesSequential(t *testing.T) {
	p, rects := equivPlan(t, 2), equivRects(2, 300, 23)
	bulkMatchesSequential(t, KindPoint, p, rects)
	bulkMatchesSequential(t, KindBox, p, rects)
}

// TestShardedMergeMatchesSequential: splitting a stream across K separately
// built sketches and merging them equals one sequential build - the
// linearity behind both the parallel bulk loader and the public Merge API.
func TestShardedMergeMatchesSequential(t *testing.T) {
	p := equivPlan(t, 2)
	rects := equivRects(2, 400, 24)
	want := p.NewSketch(KindJoin)
	for _, r := range rects {
		if err := want.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	const shards = 5
	merged := p.NewSketch(KindJoin)
	per := (len(rects) + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo := s * per
		hi := min(lo+per, len(rects))
		sh := p.NewSketch(KindJoin)
		if err := sh.InsertAll(rects[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	sameSketch(t, "sharded merge", merged, want)
}

// TestShardedBulkForcedWorkers pins the worker count above 1 so the
// goroutine fan-out, private shards and shard merge run even on single-CPU
// hosts (where bulkWorkers would otherwise collapse every load to the
// sequential branch), and checks bit-identity against repeated inserts for
// every sketch kind.
func TestShardedBulkForcedWorkers(t *testing.T) {
	orig := bulkWorkers
	bulkWorkers = func(int) int { return 4 }
	defer func() { bulkWorkers = orig }()

	p := equivPlan(t, 2)
	rects := equivRects(2, 130, 25) // not a multiple of 4, exercises ragged chunks
	for _, k := range allKinds {
		seq, bulk := p.NewSketch(k), p.NewSketch(k)
		if err := insertEach(seq, rects); err != nil {
			t.Fatal(err)
		}
		if err := insertBulk(bulk, rects); err != nil {
			t.Fatal(err)
		}
		sameSketch(t, "forced 4-worker bulk", bulk, seq)
	}
}

// TestMergeRejectsForeignPlans: every sketch kind refuses a cross-plan
// merge, and a merge of another kind - a join and a range sketch of one
// plan have the same counter count.
func TestMergeRejectsForeignPlans(t *testing.T) {
	a := equivPlan(t, 1)
	b := MustPlan(Config{Dims: 1, LogDomain: []int{8}, Instances: 48, Groups: 4, Seed: 999})
	for _, k := range allKinds {
		if err := a.NewSketch(k).Merge(b.NewSketch(k)); err == nil {
			t.Errorf("%v cross-plan merge should fail", k)
		}
	}
	if err := a.NewSketch(KindJoin).Merge(a.NewSketch(KindRange)); err == nil {
		t.Error("merging a range sketch into a join sketch should fail")
	}
	if err := a.NewSketch(KindPoint).Merge(a.NewSketch(KindBox)); err == nil {
		t.Error("merging a box sketch into a point sketch should fail")
	}
}

// TestKindChecks: every estimator refuses sketches of the wrong kinds, and
// every kind refuses the other input shape.
func TestKindChecks(t *testing.T) {
	p := equivPlan(t, 2)
	join, ce, rng := p.NewSketch(KindJoin), p.NewSketch(KindCE), p.NewSketch(KindRange)
	pts, boxes := p.NewSketch(KindPoint), p.NewSketch(KindBox)
	for name, f := range map[string]func() (Estimate, error){
		"EstimateJoin(join, range)":        func() (Estimate, error) { return EstimateJoin(join, rng) },
		"EstimateJoin(ce, ce)":             func() (Estimate, error) { return EstimateJoin(ce, ce) },
		"EstimateJoinCE(join, join)":       func() (Estimate, error) { return EstimateJoinCE(join, join) },
		"EstimateJoinExtCE(range, range)":  func() (Estimate, error) { return EstimateJoinExtCE(rng, rng) },
		"EstimatePointInBox(box, point)":   func() (Estimate, error) { return EstimatePointInBox(boxes, pts) },
		"EstimatePointInBox(point, point)": func() (Estimate, error) { return EstimatePointInBox(pts, pts) },
		"range.EstimateSelfJoin":           rng.EstimateSelfJoin,
		"join.EstimateRange":               func() (Estimate, error) { return join.EstimateRange(geo.Rect(0, 1, 0, 1)) },
	} {
		if _, err := f(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	for _, k := range allKinds {
		s := p.NewSketch(k)
		rectErr, pointErr := s.Insert(geo.Rect(1, 2, 3, 4)), s.InsertPoint(geo.Point{1, 2})
		if (rectErr == nil) == (k == KindPoint) || (pointErr == nil) != (k == KindPoint) {
			t.Errorf("%v: Insert(rect) = %v, InsertPoint(pt) = %v", k, rectErr, pointErr)
		}
		if s.Count() != 1 {
			t.Errorf("%v: count %d after one accepted insert", k, s.Count())
		}
	}
}
