package core

import (
	"testing"

	"repro/geo"
	"repro/internal/datagen"
	"repro/internal/exact"
)

// TestRange1DUnbiased: Lemma 9. Data embedded (keep), query shrunk, so the
// strict range selection of Definition 3 is estimated without Assumption 1
// on the raw data.
func TestRange1DUnbiased(t *testing.T) {
	const dom = 32
	rects := datagen.MustRects(datagen.Spec{N: 80, Dims: 1, Domain: dom, Seed: 91, MeanLen: []float64{8}})
	q := geo.Span1D(6, 21)
	want := float64(exact.RangeCount(rects, q))

	p := MustPlan(Config{Dims: 1, LogDomain: logDomains(1, dom), Instances: 30000, Groups: 4, Seed: 92})
	s := p.NewSketch(KindRange)
	for _, r := range rects {
		if err := s.Insert(geo.TransformKeepRect(r)); err != nil {
			t.Fatal(err)
		}
	}
	est, err := s.EstimateRange(geo.TransformShrinkRect(geo.HyperRect{q[0]}))
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "range1d", est, want)
}

// TestRange1DSharedEndpoints: queries whose endpoints coincide with data
// endpoints are handled by the transform.
func TestRange1DSharedEndpoints(t *testing.T) {
	rects := []geo.HyperRect{
		geo.Span1D(0, 4), geo.Span1D(4, 8), geo.Span1D(8, 12),
		geo.Span1D(2, 6), geo.Span1D(6, 10), geo.Span1D(0, 12),
		geo.Span1D(4, 12), geo.Span1D(0, 8),
	}
	q := geo.Span1D(4, 8) // touches many data endpoints
	want := float64(exact.RangeCount(rects, q))

	p := MustPlan(Config{Dims: 1, LogDomain: logDomains(1, 16), Instances: 40000, Groups: 4, Seed: 93})
	s := p.NewSketch(KindRange)
	for _, r := range rects {
		if err := s.Insert(geo.TransformKeepRect(r)); err != nil {
			t.Fatal(err)
		}
	}
	est, err := s.EstimateRange(geo.TransformShrinkRect(q.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "range1d-shared", est, want)
}

// TestRange2DUnbiased: the d-dimensional generalization of Lemma 9.
func TestRange2DUnbiased(t *testing.T) {
	const dom = 16
	rects := datagen.MustRects(datagen.Spec{N: 60, Dims: 2, Domain: dom, Seed: 94, MeanLen: []float64{5, 5}})
	q := geo.Rect(3, 11, 2, 13)
	want := float64(exact.RangeCount(rects, q))

	p := MustPlan(Config{Dims: 2, LogDomain: logDomains(2, dom), Instances: 20000, Groups: 4, Seed: 95})
	s := p.NewSketch(KindRange)
	for _, r := range rects {
		if err := s.Insert(geo.TransformKeepRect(r)); err != nil {
			t.Fatal(err)
		}
	}
	est, err := s.EstimateRange(geo.TransformShrinkRect(q))
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "range2d", est, want)
}

// TestRangeMatchesJoinSpecialCase: a range query is the join with a
// singleton relation (Section 6.4); both estimators agree in expectation.
func TestRangeMatchesJoinSpecialCase(t *testing.T) {
	const dom = 16
	rects := datagen.MustRects(datagen.Spec{N: 50, Dims: 1, Domain: dom, Seed: 96, MeanLen: []float64{5}})
	q := geo.Span1D(4, 11)
	want := float64(exact.RangeCount(rects, q))
	wantJoin := float64(exact.JoinCount(rects, []geo.HyperRect{geo.Span1D(4, 11)}))
	if want != wantJoin {
		t.Fatalf("range (%g) and singleton join (%g) disagree in exact semantics", want, wantJoin)
	}

	p := MustPlan(Config{Dims: 1, LogDomain: logDomains(1, dom), Instances: 30000, Groups: 4, Seed: 97})
	x, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	for _, r := range rects {
		if err := x.Insert(geo.TransformKeepRect(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := y.Insert(geo.TransformShrinkRect(geo.HyperRect{q[0]})); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateJoin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "range-as-join", est, want)
}

// TestRangeInsertDelete: deletion restores state exactly.
func TestRangeInsertDelete(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{6}, Instances: 30, Groups: 5, Seed: 3})
	a, b := p.NewSketch(KindRange), p.NewSketch(KindRange)
	data := datagen.MustRects(datagen.Spec{N: 25, Dims: 1, Domain: 64, Seed: 4})
	if err := a.InsertAll(data); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertAll(data); err != nil {
		t.Fatal(err)
	}
	extra := geo.Span1D(10, 20)
	if err := b.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(extra); err != nil {
		t.Fatal(err)
	}
	for i := range a.counters {
		if a.counters[i] != b.counters[i] {
			t.Fatal("range sketch delete not inverse")
		}
	}
	if a.Count() != b.Count() {
		t.Fatal("counts differ")
	}
}

func TestRangeValidation(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 1})
	s := p.NewSketch(KindRange)
	if err := s.Insert(geo.Span1D(0, 20)); err == nil {
		t.Error("out-of-domain insert should fail")
	}
	if _, err := s.EstimateRange(geo.Span1D(0, 20)); err == nil {
		t.Error("out-of-domain query should fail")
	}
	if _, err := s.EstimateRange(geo.Rect(0, 1, 0, 1)); err == nil {
		t.Error("wrong-dims query should fail")
	}
}
