package core

import (
	"testing"

	"repro/geo"
	"repro/internal/datagen"
	"repro/internal/exact"
)

// TestEpsJoinUnbiased: the Lemma 7/8 estimator matches the exact
// epsilon-join (L-infinity) via the ball expansion of Section 6.3.
func TestEpsJoinUnbiased(t *testing.T) {
	const dom = 32
	const eps = 3
	a := datagen.MustPoints(datagen.Spec{N: 60, Dims: 2, Domain: dom, Seed: 41})
	b := datagen.MustPoints(datagen.Spec{N: 60, Dims: 2, Domain: dom, Seed: 42})
	want := float64(exact.EpsJoinCount(a, b, eps, exact.LInf))

	p := MustPlan(Config{Dims: 2, LogDomain: []int{5, 5}, Instances: 20000, Groups: 4, Seed: 43})
	pts := p.NewSketch(KindPoint)
	boxes := p.NewSketch(KindBox)
	if err := pts.InsertPoints(a); err != nil {
		t.Fatal(err)
	}
	for _, q := range b {
		if err := boxes.Insert(geo.Ball(q, eps, dom)); err != nil {
			t.Fatal(err)
		}
	}
	est, err := EstimatePointInBox(pts, boxes)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "epsjoin", est, want)
}

// TestEpsJoin1D and 3D: the reduction works in any dimensionality.
func TestEpsJoinOtherDims(t *testing.T) {
	for _, dims := range []int{1, 3} {
		const dom = 16
		const eps = 2
		a := datagen.MustPoints(datagen.Spec{N: 40, Dims: dims, Domain: dom, Seed: uint64(50 + dims)})
		b := datagen.MustPoints(datagen.Spec{N: 40, Dims: dims, Domain: dom, Seed: uint64(60 + dims)})
		want := float64(exact.EpsJoinCount(a, b, eps, exact.LInf))
		logDom := make([]int, dims)
		for i := range logDom {
			logDom[i] = 4
		}
		p := MustPlan(Config{Dims: dims, LogDomain: logDom, Instances: 20000, Groups: 4, Seed: uint64(70 + dims)})
		pts, boxes := p.NewSketch(KindPoint), p.NewSketch(KindBox)
		if err := pts.InsertPoints(a); err != nil {
			t.Fatal(err)
		}
		for _, q := range b {
			if err := boxes.Insert(geo.Ball(q, eps, dom)); err != nil {
				t.Fatal(err)
			}
		}
		est, err := EstimatePointInBox(pts, boxes)
		if err != nil {
			t.Fatal(err)
		}
		assertUnbiased(t, "epsjoin-dims", est, want)
	}
}

// TestContainmentUnbiased: the Appendix B.2 reduction estimates interval
// containment joins, shared endpoints included (closed containment).
func TestContainmentUnbiased(t *testing.T) {
	const dom = 16
	r := denseIntervals(81, 45, dom)
	s := denseIntervals(82, 45, dom)
	want := float64(exact.ContainmentCount(r, s))

	// The reduction doubles dimensionality: 1-d containment -> 2-d
	// point-in-box.
	p := MustPlan(Config{Dims: 2, LogDomain: []int{4, 4}, Instances: 25000, Groups: 4, Seed: 83})
	pts, boxes := p.NewSketch(KindPoint), p.NewSketch(KindBox)
	for _, a := range r {
		if err := pts.InsertPoint(ContainmentPoint(a)); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range s {
		if err := boxes.Insert(ContainmentBox(b)); err != nil {
			t.Fatal(err)
		}
	}
	est, err := EstimatePointInBox(pts, boxes)
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "containment", est, want)
}

func TestContainmentMappings(t *testing.T) {
	r := geo.Rect(1, 4, 2, 9)
	pt := ContainmentPoint(r)
	if len(pt) != 4 || pt[0] != 1 || pt[1] != 4 || pt[2] != 2 || pt[3] != 9 {
		t.Fatalf("ContainmentPoint = %v", pt)
	}
	box := ContainmentBox(r)
	if len(box) != 4 || box[0] != r[0] || box[1] != r[0] || box[2] != r[1] || box[3] != r[1] {
		t.Fatalf("ContainmentBox = %v", box)
	}
	// The reduction is exactly containment.
	inner := geo.Rect(2, 3, 2, 5)
	if !ContainmentBox(r).ContainsPoint(ContainmentPoint(inner)) {
		t.Fatal("contained rect not detected via reduction")
	}
	outer := geo.Rect(0, 3, 2, 5)
	if ContainmentBox(r).ContainsPoint(ContainmentPoint(outer)) {
		t.Fatal("non-contained rect detected via reduction")
	}
}

// TestPointBoxInsertDelete: deletes restore exact state.
func TestPointBoxInsertDelete(t *testing.T) {
	p := MustPlan(Config{Dims: 2, LogDomain: []int{5, 5}, Instances: 40, Groups: 4, Seed: 4})
	a, b := p.NewSketch(KindPoint), p.NewSketch(KindPoint)
	pts := datagen.MustPoints(datagen.Spec{N: 30, Dims: 2, Domain: 32, Seed: 5})
	if err := a.InsertPoints(pts); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertPoints(pts); err != nil {
		t.Fatal(err)
	}
	extra := geo.Point{7, 9}
	if err := b.InsertPoint(extra); err != nil {
		t.Fatal(err)
	}
	if err := b.DeletePoint(extra); err != nil {
		t.Fatal(err)
	}
	for i := range a.counters {
		if a.counters[i] != b.counters[i] {
			t.Fatal("point sketch delete not inverse")
		}
	}

	ba, bb := p.NewSketch(KindBox), p.NewSketch(KindBox)
	boxes := datagen.MustRects(datagen.Spec{N: 20, Dims: 2, Domain: 32, Seed: 6})
	if err := ba.InsertAll(boxes); err != nil {
		t.Fatal(err)
	}
	if err := bb.InsertAll(boxes); err != nil {
		t.Fatal(err)
	}
	xbox := geo.Rect(1, 9, 2, 8)
	if err := bb.Insert(xbox); err != nil {
		t.Fatal(err)
	}
	if err := bb.Delete(xbox); err != nil {
		t.Fatal(err)
	}
	for i := range ba.counters {
		if ba.counters[i] != bb.counters[i] {
			t.Fatal("box sketch delete not inverse")
		}
	}
	if ba.Count() != bb.Count() {
		t.Fatal("box counts differ")
	}
	if a.Count() != b.Count() {
		t.Fatal("point counts differ")
	}
}

func TestPointBoxValidation(t *testing.T) {
	p := MustPlan(Config{Dims: 2, LogDomain: []int{4, 4}, Instances: 4, Groups: 2, Seed: 1})
	pts := p.NewSketch(KindPoint)
	if err := pts.InsertPoint(geo.Point{99, 0}); err == nil {
		t.Error("out-of-domain point should fail")
	}
	if err := pts.InsertPoint(geo.Point{1}); err == nil {
		t.Error("wrong dims should fail")
	}
	boxes := p.NewSketch(KindBox)
	if err := boxes.Insert(geo.Rect(0, 99, 0, 1)); err == nil {
		t.Error("out-of-domain box should fail")
	}
	q := MustPlan(Config{Dims: 2, LogDomain: []int{4, 4}, Instances: 4, Groups: 2, Seed: 2})
	if _, err := EstimatePointInBox(pts, q.NewSketch(KindBox)); err == nil {
		t.Error("cross-plan estimate should fail")
	}
}
