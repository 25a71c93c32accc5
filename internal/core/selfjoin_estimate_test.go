package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exact"
)

// TestEstimateSelfJoinUnbiased: the sketch's self-estimate of SJ(R)
// matches the exact self-join sizes (E[X_w^2] = SJ(X_w)).
func TestEstimateSelfJoinUnbiased(t *testing.T) {
	p := MustPlan(Config{
		Dims: 1, LogDomain: []int{7}, MaxLevel: []int{4},
		Instances: 20000, Groups: 4, Seed: 77,
	})
	rects := datagen.MustRects(datagen.Spec{N: 60, Dims: 1, Domain: 128, Seed: 9, MeanLen: []float64{12}})
	s := p.NewSketch(KindJoin)
	if err := s.InsertAll(rects); err != nil {
		t.Fatal(err)
	}
	want, err := exact.SelfJoinSizes(p.Domains(), p.MaxLevels(), rects)
	if err != nil {
		t.Fatal(err)
	}
	est, err := s.EstimateSelfJoin()
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "selfjoin-estimate", est, want.Total)
	// Power: the estimate must clearly distinguish SJ from, say, 2*SJ.
	if math.Abs(est.Value-want.Total) > 0.5*want.Total {
		t.Fatalf("self-join estimate %.0f too far from exact %.0f", est.Value, want.Total)
	}
}

// TestEstimateSelfJoin2D: the identity holds per letter string in 2-d too.
func TestEstimateSelfJoin2D(t *testing.T) {
	p := MustPlan(Config{
		Dims: 2, LogDomain: []int{5, 5}, MaxLevel: []int{3, 3},
		Instances: 12000, Groups: 4, Seed: 78,
	})
	rects := datagen.MustRects(datagen.Spec{N: 40, Dims: 2, Domain: 32, Seed: 10})
	s := p.NewSketch(KindJoin)
	if err := s.InsertAll(rects); err != nil {
		t.Fatal(err)
	}
	want, err := exact.SelfJoinSizes(p.Domains(), p.MaxLevels(), rects)
	if err != nil {
		t.Fatal(err)
	}
	est, err := s.EstimateSelfJoin()
	if err != nil {
		t.Fatal(err)
	}
	assertUnbiased(t, "selfjoin-estimate-2d", est, want.Total)
}

// TestEstimateSelfJoinEmpty: an empty sketch estimates zero.
func TestEstimateSelfJoinEmpty(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{5}, Instances: 8, Groups: 4, Seed: 1})
	if got, err := p.NewSketch(KindJoin).EstimateSelfJoin(); err != nil || got.Value != 0 {
		t.Fatalf("empty self-join estimate = %g, %v", got.Value, err)
	}
}
