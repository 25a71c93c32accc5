package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/geo"
	"repro/internal/exact"
)

// denseIntervals generates interval data on a tiny integer grid so that
// shared endpoints (the cases the CE sketches exist for) are common.
func denseIntervals(seed uint64, n int, dom uint64) []geo.HyperRect {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	out := make([]geo.HyperRect, n)
	for i := range out {
		lo := rng.Uint64N(dom - 1)
		hi := lo + 1 + rng.Uint64N(dom-lo-1)
		out[i] = geo.Span1D(lo, hi)
	}
	return out
}

// denseRects generates 2-d data on a tiny grid with many shared endpoints.
func denseRects(seed uint64, n int, dom uint64) []geo.HyperRect {
	rng := rand.New(rand.NewPCG(seed, seed^0x123456))
	out := make([]geo.HyperRect, n)
	for i := range out {
		xlo := rng.Uint64N(dom - 1)
		ylo := rng.Uint64N(dom - 1)
		out[i] = geo.Rect(xlo, xlo+1+rng.Uint64N(dom-xlo-1), ylo, ylo+1+rng.Uint64N(dom-ylo-1))
	}
	return out
}

// TestCEStrict1D: Lemma 13 - the common-endpoint estimator matches the
// strict join exactly in expectation WITHOUT any endpoint transformation,
// on data dense with shared endpoints.
func TestCEStrict1D(t *testing.T) {
	const dom = 16
	r := denseIntervals(1, 50, dom)
	s := denseIntervals(2, 50, dom)
	want := float64(exact.JoinCount(r, s))
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 30000, Groups: 4, Seed: 5})
	x, y := p.NewSketch(KindCE), p.NewSketch(KindCE)
	if err := x.InsertAll(r); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(s); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoinCE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "ce-strict-1d", est, want)
}

// TestCEStrictCases: per-case verification of the Lemma 13 counting on
// every Figure 3 relationship, one pair at a time.
func TestCEStrictCases(t *testing.T) {
	cases := []struct {
		r, s geo.HyperRect
		want float64
	}{
		{geo.Span1D(0, 3), geo.Span1D(5, 9), 0}, // (1) disjunct
		{geo.Span1D(0, 4), geo.Span1D(4, 9), 0}, // (2) meet
		{geo.Span1D(0, 5), geo.Span1D(3, 9), 1}, // (3) overlap
		{geo.Span1D(0, 9), geo.Span1D(3, 6), 1}, // (4) contain
		{geo.Span1D(0, 9), geo.Span1D(0, 5), 1}, // (5) contain+meet (lower)
		{geo.Span1D(0, 9), geo.Span1D(4, 9), 1}, // (5) contain+meet (upper)
		{geo.Span1D(2, 8), geo.Span1D(2, 8), 1}, // (6) identical
	}
	for i, c := range cases {
		p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 40000, Groups: 4, Seed: uint64(100 + i)})
		x, y := p.NewSketch(KindCE), p.NewSketch(KindCE)
		if err := x.Insert(c.r); err != nil {
			t.Fatal(err)
		}
		if err := y.Insert(c.s); err != nil {
			t.Fatal(err)
		}
		est, err := EstimateJoinCE(x, y)
		if err != nil {
			t.Fatal(err)
		}
		se := 6 * seOf(est)
		if diff := est.Mean - c.want; diff > se+0.02 || diff < -se-0.02 {
			t.Errorf("case %d (%v vs %v): mean %.3f, want %.0f (6se=%.3f)", i, c.r, c.s, est.Mean, c.want, se)
		}
	}
}

// TestCEExtended1D: the Appendix C extended estimator matches the
// Definition 4 extended join (boundary contact counts).
func TestCEExtended1D(t *testing.T) {
	const dom = 16
	r := denseIntervals(7, 50, dom)
	s := denseIntervals(8, 50, dom)
	want := float64(exact.JoinCountExtBrute(r, s))
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 30000, Groups: 4, Seed: 9})
	x, y := p.NewSketch(KindCE), p.NewSketch(KindCE)
	if err := x.InsertAll(r); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(s); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoinExtCE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "ce-ext-1d", est, want)
}

// TestCEExtendedCases: the extended estimator counts "meet" pairs where the
// strict one does not.
func TestCEExtendedCases(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 40000, Groups: 4, Seed: 55})
	x, y := p.NewSketch(KindCE), p.NewSketch(KindCE)
	if err := x.Insert(geo.Span1D(0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := y.Insert(geo.Span1D(4, 9)); err != nil {
		t.Fatal(err)
	}
	ext, err := EstimateJoinExtCE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := EstimateJoinCE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d := ext.Mean - 1; d > 6*seOf(ext)+0.02 || d < -6*seOf(ext)-0.02 {
		t.Errorf("extended meet: mean %.3f, want 1", ext.Mean)
	}
	if d := strict.Mean; d > 6*seOf(strict)+0.02 || d < -6*seOf(strict)-0.02 {
		t.Errorf("strict meet: mean %.3f, want 0", strict.Mean)
	}
}

// TestCEStrict2D: the d-dimensional product generalization of Lemma 13 on
// 2-d data with shared endpoints.
func TestCEStrict2D(t *testing.T) {
	const dom = 10
	r := denseRects(3, 35, dom)
	s := denseRects(4, 35, dom)
	want := float64(exact.JoinCount(r, s))
	p := MustPlan(Config{Dims: 2, LogDomain: []int{4, 4}, Instances: 16000, Groups: 4, Seed: 12})
	x, y := p.NewSketch(KindCE), p.NewSketch(KindCE)
	if err := x.InsertAll(r); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(s); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoinCE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "ce-strict-2d", est, want)
}

// TestCEExtended2D: the Appendix C formula for 2-d extended joins.
func TestCEExtended2D(t *testing.T) {
	const dom = 10
	r := denseRects(13, 35, dom)
	s := denseRects(14, 35, dom)
	want := float64(exact.JoinCountExtBrute(r, s))
	p := MustPlan(Config{Dims: 2, LogDomain: []int{4, 4}, Instances: 16000, Groups: 4, Seed: 15})
	x, y := p.NewSketch(KindCE), p.NewSketch(KindCE)
	if err := x.InsertAll(r); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(s); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoinExtCE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "ce-ext-2d", est, want)
}

// TestCEInsertDelete: CE sketches support exact deletion too.
func TestCEInsertDelete(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{5}, Instances: 30, Groups: 5, Seed: 1})
	a, b := p.NewSketch(KindCE), p.NewSketch(KindCE)
	data := denseIntervals(5, 20, 30)
	if err := a.InsertAll(data); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertAll(data); err != nil {
		t.Fatal(err)
	}
	extra := geo.Span1D(3, 17)
	if err := b.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(extra); err != nil {
		t.Fatal(err)
	}
	for i := range a.counters {
		if a.counters[i] != b.counters[i] {
			t.Fatalf("counter %d differs after delete", i)
		}
	}
	if a.Count() != b.Count() {
		t.Fatal("counts differ")
	}
}

func TestCEValidation(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 1})
	s := p.NewSketch(KindCE)
	if err := s.Insert(geo.Span1D(0, 20)); err == nil {
		t.Error("out-of-domain insert should fail")
	}
	q := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 2})
	if _, err := EstimateJoinCE(s, q.NewSketch(KindCE)); err == nil {
		t.Error("cross-plan estimate should fail")
	}
	if _, err := EstimateJoinExtCE(s, q.NewSketch(KindCE)); err == nil {
		t.Error("cross-plan estimate should fail")
	}
}

func TestCESelfJoinWeight(t *testing.T) {
	if got := CESelfJoinWeight(10, 2, 3); got != 10+2*2+2*3 {
		t.Fatalf("CESelfJoinWeight = %g", got)
	}
}

func TestPlanCEJoinInstances(t *testing.T) {
	k1, k2, err := PlanCEJoinInstances(1, Guarantee{Eps: 0.5, Phi: 0.05}, 100, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if k1 < 1 || k2 < 1 {
		t.Fatalf("k1=%d k2=%d", k1, k2)
	}
	// k1 = ceil(8*2*100*100/(0.25*2500)) = ceil(256) = 256.
	if k1 != 256 {
		t.Fatalf("k1 = %d, want 256", k1)
	}
	if _, _, err := PlanCEJoinInstances(1, Guarantee{Eps: 0, Phi: 0.5}, 1, 1, 1); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, _, err := PlanCEJoinInstances(1, Guarantee{Eps: 0.5, Phi: 0.5}, 0, 1, 1); err == nil {
		t.Error("zero SJ should fail")
	}
}

func seOf(est Estimate) float64 {
	if est.Instances == 0 {
		return 0
	}
	return math.Sqrt(est.SampleVariance / float64(est.Instances))
}
