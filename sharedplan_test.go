package spatial

import (
	"bytes"
	"sync"
	"testing"

	"repro/geo"
	"repro/internal/datagen"
)

// TestEstimatorsSharePlan: estimators of one configuration, and those
// restored from its snapshots, share one core plan; another seed does not.
func TestEstimatorsSharePlan(t *testing.T) {
	cfg := JoinConfig{Dims: 2, DomainSize: 4096, Sizing: Sizing{Instances: 256, Groups: 4}, Seed: 71}
	a, err := NewJoinEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJoinEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.plan != b.plan {
		t.Fatal("equal configurations built distinct plans")
	}
	if err := a.InsertLeft(geo.Rect(10, 20, 300, 400)); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalJoinEstimator(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.plan != a.plan {
		t.Fatal("a restored snapshot planned its configuration again")
	}
	cfg.Seed++
	c, err := NewJoinEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.plan == a.plan {
		t.Fatal("a different seed shares the plan")
	}
}

// TestSharedPlanConcurrentEstimators: writers insert into separate range
// estimators of one configuration while readers estimate on a third;
// each writer's snapshot equals a sequential build of its inputs.
func TestSharedPlanConcurrentEstimators(t *testing.T) {
	cfg := RangeConfig{Dims: 2, DomainSize: 4096, Sizing: Sizing{Instances: 256, Groups: 4}, Seed: 72}
	const writers = 3
	inputs := make([][]geo.HyperRect, writers)
	for w := range inputs {
		inputs[w] = datagen.MustRects(datagen.Spec{N: 150, Dims: 2, Domain: 4096, Seed: uint64(100 + w)})
	}
	newEst := func(rects []geo.HyperRect) *RangeEstimator {
		e, err := NewRangeEstimator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rects {
			if err := e.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	reader := newEst(inputs[0][:20])
	queries := datagen.MustRects(datagen.Spec{N: 4, Dims: 2, Domain: 4096, Seed: 7})
	want := make([]float64, len(queries))
	for i, q := range queries {
		e, err := reader.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = e.Value
	}

	ests := make([]*RangeEstimator, writers)
	for w := range ests {
		ests[w] = newEst(nil)
	}
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := range ests {
		wg.Add(1)
		go func(e *RangeEstimator, rects []geo.HyperRect) {
			defer wg.Done()
			for _, r := range rects {
				if err := e.Insert(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(ests[w], inputs[w])
	}
	for k := 0; k < 2; k++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, q := range queries {
					if e, err := reader.Estimate(q); err != nil || e.Value != want[i] {
						t.Errorf("concurrent Estimate = %v, %v; want %v", e.Value, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for w, e := range ests {
		got, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newEst(inputs[w]).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("writer %d: snapshot differs from a sequential build", w)
		}
	}
}
