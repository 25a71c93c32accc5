package core

import (
	"math"
	"testing"

	"repro/geo"
	"repro/internal/datagen"
	"repro/internal/exact"
)

// transformPair applies the Section 5.2 endpoint transformation: R is
// embedded, S is embedded and shrunk, guaranteeing Assumption 1.
func transformPair(r, s []geo.HyperRect) (tr, ts []geo.HyperRect) {
	tr = make([]geo.HyperRect, len(r))
	for i, h := range r {
		tr[i] = geo.TransformKeepRect(h)
	}
	ts = make([]geo.HyperRect, len(s))
	for i, h := range s {
		ts[i] = geo.TransformShrinkRect(h)
	}
	return tr, ts
}

// logDomains returns per-dim log sizes fitting a transformed domain of
// original size dom.
func logDomains(dims int, dom uint64) []int {
	h := log2ceil(geo.TransformDomain(dom))
	out := make([]int, dims)
	for i := range out {
		out[i] = h
	}
	return out
}

// assertUnbiased checks that the grand mean of the estimator is within a
// 6-sigma CLT band of the exact value. The band self-calibrates from the
// sample variance, so the check is deterministic under fixed seeds and
// fails with probability ~1e-9 for a correct estimator. Formula-level
// correctness (scales, signs, pairings) is verified exactly, without
// sampling noise, by the algebraic expectation tests in
// expectation_test.go; this statistical check ties the running
// implementation to those formulas.
func assertUnbiased(t *testing.T, name string, est Estimate, want float64) {
	t.Helper()
	se := math.Sqrt(est.SampleVariance / float64(est.Instances))
	tol := 6 * se
	if math.Abs(est.Mean-want) > tol {
		t.Fatalf("%s: mean %.2f vs exact %.2f exceeds 6-sigma band %.2f", name, est.Mean, want, tol)
	}
	if want > 0 && tol > want {
		t.Logf("%s: note: tolerance %.2f exceeds exact %.2f; bias power comes from expectation tests", name, tol, want)
	}
}

// TestFigure2CounterConstruction verifies the atomic sketch construction on
// the paper's Figure 2 example: domain {0..3}, r = [0,2] in R, s = [1,3]
// in S. The paper derives X_I = xi_2 + xi_6, X_E = 2 xi_1 + xi_2 + xi_3 +
// xi_4 + xi_6, Y_I = xi_3 + xi_5, Y_E = 2 xi_1 + xi_2 + xi_3 + xi_5 + xi_7.
// We check the counters match those formulas for every instance's family.
func TestFigure2CounterConstruction(t *testing.T) {
	p := MustPlan(Config{
		Dims: 1, LogDomain: []int{2}, Instances: 32, Groups: 4, Seed: 11,
	})
	x := p.NewSketch(KindJoin)
	y := p.NewSketch(KindJoin)
	if err := x.Insert(geo.Span1D(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := y.Insert(geo.Span1D(1, 3)); err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < p.Instances(); inst++ {
		f := p.family(inst, 0)
		xi := func(id uint64) int64 { return f.Sign(id) }
		wantXI := xi(2) + xi(6)
		wantXE := 2*xi(1) + xi(2) + xi(3) + xi(4) + xi(6)
		wantYI := xi(3) + xi(5)
		wantYE := 2*xi(1) + xi(2) + xi(3) + xi(5) + xi(7)
		if got := x.Counter(inst, 0); got != wantXI {
			t.Fatalf("inst %d: X_I = %d, want %d", inst, got, wantXI)
		}
		if got := x.Counter(inst, 1); got != wantXE {
			t.Fatalf("inst %d: X_E = %d, want %d", inst, got, wantXE)
		}
		if got := y.Counter(inst, 0); got != wantYI {
			t.Fatalf("inst %d: Y_I = %d, want %d", inst, got, wantYI)
		}
		if got := y.Counter(inst, 1); got != wantYE {
			t.Fatalf("inst %d: Y_E = %d, want %d", inst, got, wantYE)
		}
	}
}

// TestFigure2Expectation: E[Z] = 1 for the Figure 2 pair (they overlap).
func TestFigure2Expectation(t *testing.T) {
	p := MustPlan(Config{
		Dims: 1, LogDomain: []int{2}, Instances: 60000, Groups: 4, Seed: 3,
	})
	x, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	// No endpoint transformation needed: r=[0,2], s=[1,3] share no
	// endpoints (Assumption 1 holds as in the paper's example).
	if err := x.Insert(geo.Span1D(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := y.Insert(geo.Span1D(1, 3)); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "figure2", est, 1)
}

// TestJoin1DUnbiased: the Theorem 1 estimator is unbiased for interval
// joins on random data (endpoint-transformed, so Assumption 1 holds).
func TestJoin1DUnbiased(t *testing.T) {
	const dom = 32
	r := datagen.MustRects(datagen.Spec{N: 60, Dims: 1, Domain: dom, Seed: 101, MeanLen: []float64{8}})
	s := datagen.MustRects(datagen.Spec{N: 60, Dims: 1, Domain: dom, Seed: 202, MeanLen: []float64{8}})
	want := float64(exact.JoinCount(r, s))
	tr, ts := transformPair(r, s)

	p := MustPlan(Config{
		Dims: 1, LogDomain: logDomains(1, dom), Instances: 30000, Groups: 4, Seed: 7,
	})
	x, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	if err := x.InsertAll(tr); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "join1d", est, want)
}

// TestJoin1DSharedEndpointsViaTransform: with many shared endpoints in the
// raw data, the transform-based estimator still matches the exact strict
// join (this is the Section 5.2 guarantee end to end).
func TestJoin1DSharedEndpointsViaTransform(t *testing.T) {
	// Dense integer grid data with lots of coincident endpoints.
	var r, s []geo.HyperRect
	for lo := uint64(0); lo < 12; lo += 2 {
		for hi := lo + 2; hi <= 14; hi += 3 {
			r = append(r, geo.Span1D(lo, hi))
			s = append(s, geo.Span1D(lo+1, hi))
			s = append(s, geo.Span1D(lo, hi-1))
		}
	}
	want := float64(exact.JoinCount(r, s))
	tr, ts := transformPair(r, s)
	p := MustPlan(Config{
		Dims: 1, LogDomain: logDomains(1, 16), Instances: 30000, Groups: 4, Seed: 99,
	})
	x, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	if err := x.InsertAll(tr); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "join1d-shared", est, want)
}

// TestJoin2DUnbiased: Theorem 2 for rectangle joins.
func TestJoin2DUnbiased(t *testing.T) {
	const dom = 16
	r := datagen.MustRects(datagen.Spec{N: 40, Dims: 2, Domain: dom, Seed: 5, MeanLen: []float64{5, 5}})
	s := datagen.MustRects(datagen.Spec{N: 40, Dims: 2, Domain: dom, Seed: 6, MeanLen: []float64{5, 5}})
	want := float64(exact.JoinCount(r, s))
	tr, ts := transformPair(r, s)
	p := MustPlan(Config{
		Dims: 2, LogDomain: logDomains(2, dom), Instances: 12000, Groups: 4, Seed: 8,
	})
	x, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	if err := x.InsertAll(tr); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "join2d", est, want)
}

// TestJoin3DUnbiased: Theorem 3 for d = 3.
func TestJoin3DUnbiased(t *testing.T) {
	const dom = 8
	r := datagen.MustRects(datagen.Spec{N: 30, Dims: 3, Domain: dom, Seed: 15, MeanLen: []float64{3, 3, 3}})
	s := datagen.MustRects(datagen.Spec{N: 30, Dims: 3, Domain: dom, Seed: 16, MeanLen: []float64{3, 3, 3}})
	want := float64(exact.JoinCount(r, s))
	tr, ts := transformPair(r, s)
	p := MustPlan(Config{
		Dims: 3, LogDomain: logDomains(3, dom), Instances: 8000, Groups: 4, Seed: 21,
	})
	x, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	if err := x.InsertAll(tr); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "join3d", est, want)
}

// TestJoinMaxLevelUnbiased: Section 6.5 - capping the dyadic level keeps
// the estimator unbiased (maxLevel 0 is the standard sketch of 3.1).
func TestJoinMaxLevelUnbiased(t *testing.T) {
	const dom = 16
	r := datagen.MustRects(datagen.Spec{N: 40, Dims: 1, Domain: dom, Seed: 31, MeanLen: []float64{4}})
	s := datagen.MustRects(datagen.Spec{N: 40, Dims: 1, Domain: dom, Seed: 32, MeanLen: []float64{4}})
	want := float64(exact.JoinCount(r, s))
	tr, ts := transformPair(r, s)
	for _, ml := range []int{0, 2, 4} {
		p := MustPlan(Config{
			Dims: 1, LogDomain: logDomains(1, dom), MaxLevel: []int{ml},
			Instances: 20000, Groups: 4, Seed: uint64(40 + ml),
		})
		x, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
		if err := x.InsertAll(tr); err != nil {
			t.Fatal(err)
		}
		if err := y.InsertAll(ts); err != nil {
			t.Fatal(err)
		}
		est, err := EstimateJoin(x, y)
		if err != nil {
			t.Fatal(err)
		}
		assertUnbiased(t, "join-maxlevel", est, want)
	}
}

// TestVarianceWithinBound: the empirical variance of Z stays within the
// proven bound Var[Z] <= c(d) * SJ(R) * SJ(S) (Sections 4.1.4, 4.2.1).
func TestVarianceWithinBound(t *testing.T) {
	const dom = 16
	r := datagen.MustRects(datagen.Spec{N: 50, Dims: 1, Domain: dom, Seed: 61, MeanLen: []float64{5}})
	s := datagen.MustRects(datagen.Spec{N: 50, Dims: 1, Domain: dom, Seed: 62, MeanLen: []float64{5}})
	tr, ts := transformPair(r, s)
	p := MustPlan(Config{
		Dims: 1, LogDomain: logDomains(1, dom), Instances: 20000, Groups: 4, Seed: 63,
	})
	x, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	if err := x.InsertAll(tr); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	sjR, err := exact.SelfJoinSizes(p.Domains(), p.MaxLevels(), tr)
	if err != nil {
		t.Fatal(err)
	}
	sjS, err := exact.SelfJoinSizes(p.Domains(), p.MaxLevels(), ts)
	if err != nil {
		t.Fatal(err)
	}
	bound := JoinVarianceFactor(1) * sjR.Total * sjS.Total
	// Sample variance concentrates around the true variance; allow 10%
	// estimation slack above the proven bound.
	if est.SampleVariance > bound*1.1 {
		t.Fatalf("sample variance %.1f exceeds proven bound %.1f", est.SampleVariance, bound)
	}
	if est.SampleVariance <= 0 {
		t.Fatal("sample variance should be positive")
	}
}

// TestInsertDeleteInverse: deleting an inserted object restores the exact
// counter state (Section 4.1.5 incremental maintenance).
func TestInsertDeleteInverse(t *testing.T) {
	const dom = 64
	p := MustPlan(Config{
		Dims: 2, LogDomain: []int{6, 6}, Instances: 50, Groups: 5, Seed: 77,
	})
	base := datagen.MustRects(datagen.Spec{N: 30, Dims: 2, Domain: dom, Seed: 71})
	extra := datagen.MustRects(datagen.Spec{N: 10, Dims: 2, Domain: dom, Seed: 72})

	ref := p.NewSketch(KindJoin)
	if err := ref.InsertAll(base); err != nil {
		t.Fatal(err)
	}
	sk := p.NewSketch(KindJoin)
	if err := sk.InsertAll(base); err != nil {
		t.Fatal(err)
	}
	if err := sk.InsertAll(extra); err != nil {
		t.Fatal(err)
	}
	for _, e := range extra {
		if err := sk.Delete(e); err != nil {
			t.Fatal(err)
		}
	}
	if sk.Count() != ref.Count() {
		t.Fatalf("count %d != %d", sk.Count(), ref.Count())
	}
	for i := range ref.counters {
		if sk.counters[i] != ref.counters[i] {
			t.Fatalf("counter %d differs after delete: %d vs %d", i, sk.counters[i], ref.counters[i])
		}
	}
}

// TestMergeEqualsUnion: merging sketches of two streams equals sketching
// the concatenated stream.
func TestMergeEqualsUnion(t *testing.T) {
	p := MustPlan(Config{
		Dims: 1, LogDomain: []int{8}, Instances: 40, Groups: 4, Seed: 13,
	})
	a := datagen.MustRects(datagen.Spec{N: 25, Dims: 1, Domain: 256, Seed: 1})
	b := datagen.MustRects(datagen.Spec{N: 35, Dims: 1, Domain: 256, Seed: 2})
	sa, sb := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	if err := sa.InsertAll(a); err != nil {
		t.Fatal(err)
	}
	if err := sb.InsertAll(b); err != nil {
		t.Fatal(err)
	}
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	union := p.NewSketch(KindJoin)
	if err := union.InsertAll(append(append([]geo.HyperRect{}, a...), b...)); err != nil {
		t.Fatal(err)
	}
	if sa.Count() != union.Count() {
		t.Fatalf("merged count %d != %d", sa.Count(), union.Count())
	}
	for i := range union.counters {
		if sa.counters[i] != union.counters[i] {
			t.Fatalf("counter %d differs", i)
		}
	}
	// Merging across plans must fail.
	other := MustPlan(Config{Dims: 1, LogDomain: []int{8}, Instances: 40, Groups: 4, Seed: 14})
	if err := sa.Merge(other.NewSketch(KindJoin)); err == nil {
		t.Fatal("cross-plan merge should fail")
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Config{
		{Dims: 0, LogDomain: nil, Instances: 1, Groups: 1},
		{Dims: 9, LogDomain: make([]int, 9), Instances: 1, Groups: 1},
		{Dims: 1, LogDomain: []int{0}, Instances: 1, Groups: 1},
		{Dims: 1, LogDomain: []int{4, 4}, Instances: 1, Groups: 1},
		{Dims: 1, LogDomain: []int{4}, Instances: 0, Groups: 1},
		{Dims: 1, LogDomain: []int{4}, Instances: 10, Groups: 3},
		{Dims: 2, LogDomain: []int{4, 4}, MaxLevel: []int{1}, Instances: 4, Groups: 2},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 1})
	s := p.NewSketch(KindJoin)
	if err := s.Insert(geo.Span1D(0, 16)); err == nil {
		t.Error("out-of-domain insert should fail")
	}
	if err := s.Insert(geo.Rect(0, 1, 0, 1)); err == nil {
		t.Error("wrong dims should fail")
	}
	if err := s.Insert(geo.HyperRect{geo.Interval{Lo: 5, Hi: 2}}); err == nil {
		t.Error("inverted interval should fail")
	}
	q := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 2})
	if _, err := EstimateJoin(s, q.NewSketch(KindJoin)); err == nil {
		t.Error("cross-plan estimate should fail")
	}
}
