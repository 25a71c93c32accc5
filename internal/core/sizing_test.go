package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exact"
)

func TestJoinVarianceFactor(t *testing.T) {
	// d=1 and d=2 both give 1/2 (Sections 4.1.4, 4.2.1); d=3 gives 26/64.
	if got := JoinVarianceFactor(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("c(1) = %g, want 0.5", got)
	}
	if got := JoinVarianceFactor(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("c(2) = %g, want 0.5", got)
	}
	if got := JoinVarianceFactor(3); math.Abs(got-26.0/64.0) > 1e-12 {
		t.Errorf("c(3) = %g, want 26/64", got)
	}
}

func TestEpsJoinVarianceFactor(t *testing.T) {
	if got := EpsJoinVarianceFactor(2); got != 8 {
		t.Errorf("eps c(2) = %g, want 8 (Lemma 7)", got)
	}
	if got := EpsJoinVarianceFactor(3); got != 26 {
		t.Errorf("eps c(3) = %g, want 26", got)
	}
}

func TestPlanGroups(t *testing.T) {
	// k2 = ceil(2 lg(1/phi)).
	if got := PlanGroups(0.25); got != 4 {
		t.Errorf("PlanGroups(0.25) = %d, want 4", got)
	}
	if got := PlanGroups(0.01); got != int(math.Ceil(2*math.Log2(100))) {
		t.Errorf("PlanGroups(0.01) = %d", got)
	}
	if got := PlanGroups(0.9999); got < 1 {
		t.Errorf("PlanGroups must be >= 1, got %d", got)
	}
}

func TestPlanJoinInstancesFormula(t *testing.T) {
	// d=1: k1 = ceil(8 * 0.5 * sjR*sjS / (eps^2 E^2)) = ceil(4 sjR sjS /
	// (eps^2 E^2)), matching Theorem 1's "groups of 4 SJ(R)SJ(S)/eps^2E^2".
	k1, k2, err := PlanJoinInstances(1, Guarantee{Eps: 0.5, Phi: 0.25}, 1000, 2000, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(4 * 1000 * 2000 / (0.25 * 400 * 400)))
	if k1 != want {
		t.Errorf("k1 = %d, want %d", k1, want)
	}
	if k2 != 4 {
		t.Errorf("k2 = %d, want 4", k2)
	}
}

func TestPlanJoinInstancesValidation(t *testing.T) {
	cases := []struct {
		g            Guarantee
		sjR, sjS, lb float64
	}{
		{Guarantee{Eps: 0, Phi: 0.5}, 1, 1, 1},
		{Guarantee{Eps: 0.5, Phi: 0}, 1, 1, 1},
		{Guarantee{Eps: 0.5, Phi: 1}, 1, 1, 1},
		{Guarantee{Eps: 0.5, Phi: 0.5}, 0, 1, 1},
		{Guarantee{Eps: 0.5, Phi: 0.5}, 1, -1, 1},
		{Guarantee{Eps: 0.5, Phi: 0.5}, 1, 1, 0},
		{Guarantee{Eps: 1e-9, Phi: 0.5}, 1e12, 1e12, 1}, // too many instances
	}
	for i, c := range cases {
		if _, _, err := PlanJoinInstances(1, c.g, c.sjR, c.sjS, c.lb); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestWordsAccounting(t *testing.T) {
	// 1-d: "five values" per instance pair (4 counters + 1 seed word).
	if got := JoinWordsPerInstancePair(1); got != 5 {
		t.Errorf("1d words per pair = %d, want 5", got)
	}
	// 2-d: 8 counters + 2 seeds.
	if got := JoinWordsPerInstancePair(2); got != 10 {
		t.Errorf("2d words per pair = %d, want 10", got)
	}
	if got := JoinWordsPerRelation(2); got != 5 {
		t.Errorf("2d words per relation = %g, want 5", got)
	}
	if got := JoinSpaceWords(2, 100); got != 1000 {
		t.Errorf("space words = %d", got)
	}
}

func TestInstancesForBudget(t *testing.T) {
	n := InstancesForBudget(2, 5000, 10)
	if n%10 != 0 {
		t.Errorf("instances %d not a multiple of groups", n)
	}
	if n != 1000 {
		t.Errorf("instances = %d, want 1000 (5000 words / 5 per relation)", n)
	}
	// A tiny budget still yields at least one instance per group.
	if got := InstancesForBudget(2, 1, 7); got != 7 {
		t.Errorf("min instances = %d, want 7", got)
	}
}

func TestRangeVarianceBound(t *testing.T) {
	// Var <= 2 (3h+1) SJ(R), Lemma 9.
	if got := RangeVarianceBound(10, 100); got != 2*31*100 {
		t.Errorf("range variance bound = %g", got)
	}
	k1, k2, err := PlanRangeInstances(10, Guarantee{Eps: 0.5, Phi: 0.25}, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(8 * 2 * 31 * 100 / (0.25 * 2500)))
	if k1 != want || k2 != 4 {
		t.Errorf("k1=%d k2=%d, want %d, 4", k1, k2, want)
	}
	if _, _, err := PlanRangeInstances(10, Guarantee{Eps: 0.5, Phi: 0.5}, 0, 1); err == nil {
		t.Error("zero SJ should fail")
	}
	if _, _, err := PlanRangeInstances(10, Guarantee{Eps: 0.5, Phi: 0.5}, 1, 0); err == nil {
		t.Error("zero bound should fail")
	}
}

func TestPlanEpsJoinInstances(t *testing.T) {
	k1, k2, err := PlanEpsJoinInstances(2, Guarantee{Eps: 1, Phi: 0.25}, 10, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	// k1 = ceil(8 * 8 * 100 / 100) = 64.
	if k1 != 64 || k2 != 4 {
		t.Errorf("k1=%d k2=%d, want 64, 4", k1, k2)
	}
	if _, _, err := PlanEpsJoinInstances(2, Guarantee{Eps: 1, Phi: 0.25}, 0, 1, 1); err == nil {
		t.Error("zero SJ should fail")
	}
}

// TestGuaranteeEndToEnd: size a sketch from exact self-join sizes per
// Theorem 1 and verify the boosted estimate honors the guaranteed relative
// error (the Figure 7 property), across several seeds.
func TestGuaranteeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical end-to-end test")
	}
	const dom = 64
	g := Guarantee{Eps: 0.4, Phi: 0.05}
	r := datagen.MustRects(datagen.Spec{N: 120, Dims: 1, Domain: dom, Seed: 201, MeanLen: []float64{10}})
	s := datagen.MustRects(datagen.Spec{N: 120, Dims: 1, Domain: dom, Seed: 202, MeanLen: []float64{10}})
	want := float64(exact.JoinCount(r, s))
	tr, ts := transformPair(r, s)

	// Plan from exact SJ sizes and the exact result as the sanity bound
	// (the best case the paper describes: historic exact answers).
	probe := MustPlan(Config{Dims: 1, LogDomain: logDomains(1, dom), Instances: 1, Groups: 1, Seed: 1})
	sjR, err := exact.SelfJoinSizes(probe.Domains(), probe.MaxLevels(), tr)
	if err != nil {
		t.Fatal(err)
	}
	sjS, err := exact.SelfJoinSizes(probe.Domains(), probe.MaxLevels(), ts)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, err := PlanJoinInstances(1, g, sjR.Total, sjS.Total, want)
	if err != nil {
		t.Fatal(err)
	}
	// Cap the planned size so the test stays fast; the guarantee only
	// strengthens with more instances, so capping k1 from above is not
	// allowed - cap via a coarser guarantee instead if this ever explodes.
	if k1*k2 > 2_000_000 {
		t.Skipf("planned %d instances; workload too adversarial for a unit test", k1*k2)
	}
	for trial := 0; trial < 3; trial++ {
		p := MustPlan(Config{
			Dims: 1, LogDomain: logDomains(1, dom),
			Instances: k1 * k2, Groups: k2, Seed: uint64(300 + trial),
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
		relErr := math.Abs(est.Value-want) / want
		if relErr > g.Eps {
			t.Errorf("trial %d: relative error %.3f exceeds guaranteed %.2f (estimate %.1f vs %.1f)",
				trial, relErr, g.Eps, est.Value, want)
		}
	}
}
