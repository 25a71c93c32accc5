package spatial

import (
	"math"
	"testing"

	"repro/geo"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exact"
)

func assertClose(t *testing.T, name string, est Estimate, want float64) {
	t.Helper()
	se := math.Sqrt(est.SampleVariance / float64(est.Instances))
	if math.Abs(est.Mean-want) > 6*se {
		t.Fatalf("%s: mean %.2f vs exact %.2f exceeds 6-sigma band %.2f", name, est.Mean, want, 6*se)
	}
}

func TestJoinEstimatorEndToEnd(t *testing.T) {
	const dom = 64
	r := datagen.MustRects(datagen.Spec{N: 80, Dims: 2, Domain: dom, Seed: 1, MeanLen: []float64{16, 16}})
	s := datagen.MustRects(datagen.Spec{N: 80, Dims: 2, Domain: dom, Seed: 2, MeanLen: []float64{16, 16}})
	want := float64(exact.JoinCount(r, s))

	est, err := NewJoinEstimator(JoinConfig{
		Dims: 2, DomainSize: dom,
		Sizing: Sizing{Instances: 12000, Groups: 4},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.InsertLeftBulk(r); err != nil {
		t.Fatal(err)
	}
	if err := est.InsertRightBulk(s); err != nil {
		t.Fatal(err)
	}
	card, err := est.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "join-facade", card, want)
	if est.LeftCount() != 80 || est.RightCount() != 80 {
		t.Fatalf("counts %d, %d", est.LeftCount(), est.RightCount())
	}
	sel, err := est.Selectivity()
	if err != nil {
		t.Fatal(err)
	}
	wantSel := want / (80.0 * 80.0)
	if math.Abs(sel-wantSel) > wantSel {
		t.Fatalf("selectivity %g vs %g", sel, wantSel)
	}
	if est.SpaceWords() <= 0 || est.Instances() <= 0 {
		t.Fatal("accounting should be positive")
	}
}

func TestJoinEstimatorCommonEndpointsMode(t *testing.T) {
	// Data on a small integer grid: plenty of shared endpoints, no
	// transform.
	const dom = 16
	r := datagen.MustRects(datagen.Spec{N: 50, Dims: 1, Domain: dom, Seed: 3, MeanLen: []float64{5}})
	s := datagen.MustRects(datagen.Spec{N: 50, Dims: 1, Domain: dom, Seed: 4, MeanLen: []float64{5}})
	wantStrict := float64(exact.JoinCount(r, s))
	wantExt := float64(exact.JoinCountExtBrute(r, s))

	est, err := NewJoinEstimator(JoinConfig{
		Dims: 1, DomainSize: dom, Mode: ModeCommonEndpoints,
		Sizing: Sizing{Instances: 20000, Groups: 4}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.InsertLeftBulk(r); err != nil {
		t.Fatal(err)
	}
	if err := est.InsertRightBulk(s); err != nil {
		t.Fatal(err)
	}
	card, err := est.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "ce-facade-strict", card, wantStrict)
	ext, err := est.CardinalityExtended()
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "ce-facade-ext", ext, wantExt)
}

func TestExtendedRequiresCEMode(t *testing.T) {
	est, err := NewJoinEstimator(JoinConfig{Dims: 1, DomainSize: 64, Sizing: Sizing{Instances: 8, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.CardinalityExtended(); err == nil {
		t.Fatal("extended join should require ModeCommonEndpoints")
	}
	if _, err := est.MarshalLeft(); err != nil {
		t.Fatal("transform-mode serialization should work")
	}
	ce, err := NewJoinEstimator(JoinConfig{Dims: 1, DomainSize: 64, Mode: ModeCommonEndpoints, Sizing: Sizing{Instances: 8, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.MarshalLeft(); err == nil {
		t.Fatal("CE-mode serialization should be rejected")
	}
}

func TestJoinEstimatorDeletes(t *testing.T) {
	const dom = 64
	r := datagen.MustRects(datagen.Spec{N: 60, Dims: 1, Domain: dom, Seed: 5, MeanLen: []float64{12}})
	s := datagen.MustRects(datagen.Spec{N: 60, Dims: 1, Domain: dom, Seed: 6, MeanLen: []float64{12}})
	// Reference: only the first halves.
	want := float64(exact.JoinCount(r[:30], s[:30]))

	est, err := NewJoinEstimator(JoinConfig{
		Dims: 1, DomainSize: dom, Sizing: Sizing{Instances: 20000, Groups: 4}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.InsertLeftBulk(r); err != nil {
		t.Fatal(err)
	}
	if err := est.InsertRightBulk(s); err != nil {
		t.Fatal(err)
	}
	for _, x := range r[30:] {
		if err := est.DeleteLeft(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range s[30:] {
		if err := est.DeleteRight(x); err != nil {
			t.Fatal(err)
		}
	}
	if est.LeftCount() != 30 || est.RightCount() != 30 {
		t.Fatalf("counts after delete: %d, %d", est.LeftCount(), est.RightCount())
	}
	card, err := est.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "join-deletes", card, want)
}

func TestJoinEstimatorValidation(t *testing.T) {
	if _, err := NewJoinEstimator(JoinConfig{Dims: 0, DomainSize: 64}); err == nil {
		t.Error("dims 0 should fail")
	}
	if _, err := NewJoinEstimator(JoinConfig{Dims: 1, DomainSize: 1}); err == nil {
		t.Error("tiny domain should fail")
	}
	if _, err := NewJoinEstimator(JoinConfig{Dims: 1, DomainSize: 64, Sizing: Sizing{Instances: 2, Groups: 8}}); err == nil {
		t.Error("instances < groups should fail")
	}
	est, err := NewJoinEstimator(JoinConfig{Dims: 1, DomainSize: 64, Sizing: Sizing{Instances: 8, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.InsertLeft(geo.Span1D(0, 64)); err == nil {
		t.Error("out-of-domain insert should fail")
	}
	if err := est.InsertLeft(geo.Span1D(5, 5)); err == nil {
		t.Error("degenerate insert should fail")
	}
	if err := est.InsertLeft(geo.Rect(0, 1, 0, 1)); err == nil {
		t.Error("wrong dims should fail")
	}
	if err := est.InsertLeft(geo.HyperRect{geo.Interval{Lo: 5, Hi: 2}}); err == nil {
		t.Error("inverted interval should fail")
	}
	if _, err := est.Selectivity(); err == nil {
		t.Error("selectivity on empty inputs should fail")
	}
}

func TestJoinSerializationMergeWorkflow(t *testing.T) {
	cfg := JoinConfig{Dims: 1, DomainSize: 64, Sizing: Sizing{Instances: 2000, Groups: 4}, Seed: 21}
	r := datagen.MustRects(datagen.Spec{N: 40, Dims: 1, Domain: 64, Seed: 7, MeanLen: []float64{12}})
	s := datagen.MustRects(datagen.Spec{N: 40, Dims: 1, Domain: 64, Seed: 8, MeanLen: []float64{12}})

	// Two "edge" estimators each summarize half of R.
	edge1, _ := NewJoinEstimator(cfg)
	edge2, _ := NewJoinEstimator(cfg)
	if err := edge1.InsertLeftBulk(r[:20]); err != nil {
		t.Fatal(err)
	}
	if err := edge2.InsertLeftBulk(r[20:]); err != nil {
		t.Fatal(err)
	}
	blob2, err := edge2.MarshalLeft()
	if err != nil {
		t.Fatal(err)
	}
	if err := edge1.MergeLeftFrom(blob2); err != nil {
		t.Fatal(err)
	}
	if err := edge1.InsertRightBulk(s); err != nil {
		t.Fatal(err)
	}
	merged, err := edge1.Cardinality()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: everything in one estimator.
	ref, _ := NewJoinEstimator(cfg)
	if err := ref.InsertLeftBulk(r); err != nil {
		t.Fatal(err)
	}
	if err := ref.InsertRightBulk(s); err != nil {
		t.Fatal(err)
	}
	direct, err := ref.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Value != direct.Value {
		t.Fatalf("merged estimate %g != direct %g", merged.Value, direct.Value)
	}
}

func TestRangeEstimatorEndToEnd(t *testing.T) {
	const dom = 64
	rects := datagen.MustRects(datagen.Spec{N: 100, Dims: 1, Domain: dom, Seed: 31, MeanLen: []float64{10}})
	re, err := NewRangeEstimator(RangeConfig{
		Dims: 1, DomainSize: dom, Sizing: Sizing{Instances: 20000, Groups: 4}, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.InsertBulk(rects); err != nil {
		t.Fatal(err)
	}
	for _, q := range []geo.HyperRect{geo.Span1D(5, 20), geo.Span1D(0, 63), geo.Span1D(30, 31)} {
		want := float64(exact.RangeCount(rects, q))
		got, err := re.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "range-facade", got, want)
	}
	if re.Count() != 100 {
		t.Fatalf("count %d", re.Count())
	}
	sel, err := re.Selectivity(geo.Span1D(0, 63))
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0 || sel > 1.5 {
		t.Fatalf("selectivity %g out of plausible range", sel)
	}
	if _, err := re.Marshal(); err != nil {
		t.Fatal(err)
	}
	// Delete path.
	if err := re.Delete(rects[0]); err != nil {
		t.Fatal(err)
	}
	if re.Count() != 99 {
		t.Fatal("delete did not decrement count")
	}
}

func TestRangeEstimatorValidation(t *testing.T) {
	if _, err := NewRangeEstimator(RangeConfig{Dims: 0, DomainSize: 64}); err == nil {
		t.Error("dims 0 should fail")
	}
	re, err := NewRangeEstimator(RangeConfig{Dims: 1, DomainSize: 64, Sizing: Sizing{Instances: 8, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Insert(geo.Span1D(0, 100)); err == nil {
		t.Error("out-of-domain insert should fail")
	}
	if _, err := re.Estimate(geo.Span1D(0, 100)); err == nil {
		t.Error("out-of-domain query should fail")
	}
	if _, err := re.Selectivity(geo.Span1D(0, 5)); err == nil {
		t.Error("selectivity on empty relation should fail")
	}
}

func TestEpsJoinEstimatorEndToEnd(t *testing.T) {
	const dom = 64
	const eps = 5
	a := datagen.MustPoints(datagen.Spec{N: 70, Dims: 2, Domain: dom, Seed: 41})
	b := datagen.MustPoints(datagen.Spec{N: 70, Dims: 2, Domain: dom, Seed: 42})
	want := float64(exact.EpsJoinCount(a, b, eps, exact.LInf))

	est, err := NewEpsJoinEstimator(EpsJoinConfig{
		Dims: 2, DomainSize: dom, Eps: eps,
		Sizing: Sizing{Instances: 20000, Groups: 4}, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a {
		if err := est.InsertLeft(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range b {
		if err := est.InsertRight(p); err != nil {
			t.Fatal(err)
		}
	}
	card, err := est.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "epsjoin-facade", card, want)
	if est.LeftCount() != 70 || est.RightCount() != 70 {
		t.Fatal("counts wrong")
	}
	if _, err := est.Selectivity(); err != nil {
		t.Fatal(err)
	}
	// Deletes.
	if err := est.DeleteLeft(a[0]); err != nil {
		t.Fatal(err)
	}
	if err := est.DeleteRight(b[0]); err != nil {
		t.Fatal(err)
	}
	if est.LeftCount() != 69 || est.RightCount() != 69 {
		t.Fatal("delete counts wrong")
	}
}

func TestEpsJoinValidation(t *testing.T) {
	if _, err := NewEpsJoinEstimator(EpsJoinConfig{Dims: 0, DomainSize: 64, Eps: 1}); err == nil {
		t.Error("dims 0 should fail")
	}
	if _, err := NewEpsJoinEstimator(EpsJoinConfig{Dims: 1, DomainSize: 64, Eps: 64}); err == nil {
		t.Error("eps >= domain should fail")
	}
	est, err := NewEpsJoinEstimator(EpsJoinConfig{Dims: 2, DomainSize: 64, Eps: 2, Sizing: Sizing{Instances: 8, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.InsertLeft(geo.Point{99, 0}); err == nil {
		t.Error("out-of-domain point should fail")
	}
	if err := est.InsertRight(geo.Point{0}); err == nil {
		t.Error("wrong dims should fail")
	}
	if _, err := est.Selectivity(); err == nil {
		t.Error("selectivity on empty inputs should fail")
	}
}

func TestContainmentEstimatorEndToEnd(t *testing.T) {
	const dom = 32
	inner := datagen.MustRects(datagen.Spec{N: 60, Dims: 1, Domain: dom, Seed: 51, MeanLen: []float64{4}})
	outer := datagen.MustRects(datagen.Spec{N: 60, Dims: 1, Domain: dom, Seed: 52, MeanLen: []float64{12}})
	want := float64(exact.ContainmentCount(inner, outer))

	est, err := NewContainmentEstimator(ContainmentConfig{
		Dims: 1, DomainSize: dom, Sizing: Sizing{Instances: 25000, Groups: 4}, Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range inner {
		if err := est.InsertInner(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range outer {
		if err := est.InsertOuter(r); err != nil {
			t.Fatal(err)
		}
	}
	card, err := est.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "containment-facade", card, want)
	if est.InnerCount() != 60 || est.OuterCount() != 60 {
		t.Fatal("counts wrong")
	}
	if _, err := est.Selectivity(); err != nil {
		t.Fatal(err)
	}
	if err := est.DeleteInner(inner[0]); err != nil {
		t.Fatal(err)
	}
	if err := est.DeleteOuter(outer[0]); err != nil {
		t.Fatal(err)
	}
	if est.InnerCount() != 59 || est.OuterCount() != 59 {
		t.Fatal("delete counts wrong")
	}
}

func TestContainmentValidation(t *testing.T) {
	if _, err := NewContainmentEstimator(ContainmentConfig{Dims: 5, DomainSize: 64}); err == nil {
		t.Error("dims 5 should fail (reduction doubles dims)")
	}
	est, err := NewContainmentEstimator(ContainmentConfig{Dims: 1, DomainSize: 64, Sizing: Sizing{Instances: 8, Groups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.InsertInner(geo.Span1D(0, 99)); err == nil {
		t.Error("out-of-domain insert should fail")
	}
	if _, err := est.Selectivity(); err == nil {
		t.Error("selectivity on empty inputs should fail")
	}
}

func TestSizingModes(t *testing.T) {
	joinShape1 := shape{dims: 1, words: core.JoinWordsPerRelation(1)}
	// Default sizing.
	inst, groups, err := Sizing{}.resolve(&joinKind, joinShape1)
	if err != nil || inst != defaultInstances || groups != defaultGroups {
		t.Fatalf("default sizing = %d/%d, err %v", inst, groups, err)
	}
	// Explicit rounds down to a multiple of groups.
	inst, groups, err = Sizing{Instances: 103, Groups: 10}.resolve(&joinKind, joinShape1)
	if err != nil || inst != 100 || groups != 10 {
		t.Fatalf("explicit sizing = %d/%d, err %v", inst, groups, err)
	}
	// Memory budget (1-d: 2.5 words per relation per instance).
	inst, _, err = Sizing{MemoryWords: 1000, Groups: 4}.resolve(&joinKind, joinShape1)
	if err != nil || inst != 400 {
		t.Fatalf("budget sizing = %d, err %v", inst, err)
	}
	// Guarantee-based.
	inst, groups, err = Sizing{
		Guarantee:    &Guarantee{Eps: 0.5, Phi: 0.25},
		SelfJoinLeft: 100, SelfJoinRight: 100, ResultLowerBound: 40,
	}.resolve(&joinKind, joinShape1)
	if err != nil {
		t.Fatal(err)
	}
	if groups != 4 || inst%groups != 0 {
		t.Fatalf("guarantee sizing = %d/%d", inst, groups)
	}
	// Guarantee without bounds fails.
	if _, _, err := (Sizing{Guarantee: &Guarantee{Eps: 0.5, Phi: 0.25}}).resolve(&joinKind, joinShape1); err == nil {
		t.Fatal("guarantee sizing without SJ bounds should fail")
	}
}

// TestGuaranteeSizingPerKind: Sizing.Guarantee sizes every kind by its
// own bound - Theorem 3 for joins, Lemma 8 for epsilon-joins at d and for
// containment joins at the reduction's 2d, Lemma 9 for 1-d range
// synopses - and refuses range synopses of more dimensions.
func TestGuaranteeSizingPerKind(t *testing.T) {
	g := Guarantee{Eps: 0.5, Phi: 0.25}
	sz := Sizing{Guarantee: &g, SelfJoinLeft: 100, SelfJoinRight: 100, ResultLowerBound: 100}
	want := func(k1, k2 int, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return k1 * k2
	}
	cg := core.Guarantee(g)
	join := want(core.PlanJoinInstances(2, cg, 100, 100, 100))
	lemma8 := want(core.PlanEpsJoinInstances(2, cg, 100, 100, 100))
	if lemma8 != 16*join {
		t.Fatalf("Lemma 8 plans %d instances at d = 2, Theorem 3 %d: want 16x", lemma8, join)
	}
	const dom = 1024
	rng := want(core.PlanRangeInstances(log2ceil(geo.TransformDomain(dom)), cg, 100, 100))
	for _, c := range []struct {
		name string
		new  func() (interface{ Instances() int }, error)
		want int
	}{
		{"join", func() (interface{ Instances() int }, error) {
			return NewJoinEstimator(JoinConfig{Dims: 2, DomainSize: dom, Sizing: sz})
		}, join},
		{"join/common-endpoints", func() (interface{ Instances() int }, error) {
			return NewJoinEstimator(JoinConfig{Dims: 2, DomainSize: dom, Sizing: sz, Mode: ModeCommonEndpoints})
		}, join},
		{"epsjoin", func() (interface{ Instances() int }, error) {
			return NewEpsJoinEstimator(EpsJoinConfig{Dims: 2, DomainSize: dom, Eps: 4, Sizing: sz})
		}, lemma8},
		{"containment (2d = 2)", func() (interface{ Instances() int }, error) {
			return NewContainmentEstimator(ContainmentConfig{Dims: 1, DomainSize: dom, Sizing: sz})
		}, lemma8},
		{"range", func() (interface{ Instances() int }, error) {
			return NewRangeEstimator(RangeConfig{Dims: 1, DomainSize: dom, Sizing: sz})
		}, rng},
	} {
		e, err := c.new()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := e.Instances(); got != c.want {
			t.Errorf("%s: Guarantee sizing gave %d instances, want %d", c.name, got, c.want)
		}
	}
	if _, err := NewRangeEstimator(RangeConfig{Dims: 2, DomainSize: dom, Sizing: sz}); err == nil {
		t.Error("2-d range estimator accepted a Guarantee it has no planner for")
	}
}

func TestSelfJoinPlanningHelpers(t *testing.T) {
	cfg := JoinConfig{Dims: 1, DomainSize: 64}
	r := datagen.MustRects(datagen.Spec{N: 30, Dims: 1, Domain: 64, Seed: 61, MeanLen: []float64{8}})
	sjL, err := SelfJoinSizeLeft(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	sjR, err := SelfJoinSizeRight(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if sjL <= 0 || sjR <= 0 {
		t.Fatalf("self-join sizes %g, %g", sjL, sjR)
	}
	inst, groups, err := PlanJoin(1, Guarantee{Eps: 0.5, Phi: 0.1}, sjL, sjR, 100)
	if err != nil {
		t.Fatal(err)
	}
	if inst <= 0 || groups <= 0 {
		t.Fatal("plan should be positive")
	}
	words, err := JoinGuaranteeSpaceWords(1, Guarantee{Eps: 0.5, Phi: 0.1}, sjL, sjR, 100)
	if err != nil {
		t.Fatal(err)
	}
	if words != inst*5 {
		t.Fatalf("words %d != instances %d * 5", words, inst)
	}
	if JoinVarianceFactor(1) != 0.5 {
		t.Fatal("variance factor re-export")
	}
	ceCfg := cfg
	ceCfg.Mode = ModeCommonEndpoints
	if _, err := SelfJoinSizeLeft(ceCfg, r); err == nil {
		t.Fatal("CE mode planning should be rejected")
	}
}

func TestEstimateStdErr(t *testing.T) {
	e := Estimate{SampleVariance: 100, Instances: 25, GroupMeans: make([]float64, 5)}
	if got := e.StdErr(); math.Abs(got-math.Sqrt(20)) > 1e-12 {
		t.Fatalf("StdErr = %g", got)
	}
	if !math.IsNaN((Estimate{}).StdErr()) {
		t.Fatal("empty StdErr should be NaN")
	}
}

func TestEstimateClampedAndModeString(t *testing.T) {
	if (Estimate{Value: -1}).Clamped() != 0 {
		t.Error("clamp")
	}
	if ModeTransform.String() != "transform" || ModeCommonEndpoints.String() != "common-endpoints" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should stringify")
	}
}

// TestCEModeSpaceWords: CE sketches cost 2*4^d + d words per instance.
func TestCEModeSpaceWords(t *testing.T) {
	est, err := NewJoinEstimator(JoinConfig{
		Dims: 2, DomainSize: 64, Mode: ModeCommonEndpoints,
		Sizing: Sizing{Instances: 10, Groups: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := est.SpaceWords(); got != 10*(2*16+2) {
		t.Fatalf("CE space words = %d", got)
	}
}
