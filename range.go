package spatial

import (
	"fmt"

	"repro/geo"
	"repro/internal/core"
)

// RangeConfig configures a range-query selectivity estimator
// (Definition 3, Section 6.4).
type RangeConfig struct {
	// Dims is the data dimensionality.
	Dims int
	// DomainSize is the per-dimension coordinate domain.
	DomainSize uint64
	// Sizing picks the number of atomic instances.
	Sizing Sizing
	// MaxLevel caps the dyadic level (Section 6.5). Positive values are
	// explicit; 0 picks an adaptive default from the domain size;
	// MaxLevelUncapped disables the cap.
	MaxLevel int
	// Seed makes the synopsis deterministic.
	Seed uint64
}

// RangeEstimator estimates |Q(q, R)| - how many objects of the summarized
// relation overlap a query hyper-rectangle - using the optimized
// two-sketch-per-dimension estimator of Lemma 9. Data and queries are
// endpoint-transformed internally, so arbitrary coordinates are fine.
//
// A RangeEstimator is safe for concurrent use (see shard.go).
type RangeEstimator struct{ estimator }

// NewRangeEstimator validates the configuration and allocates the synopsis.
func NewRangeEstimator(cfg RangeConfig) (*RangeEstimator, error) {
	e := new(RangeEstimator)
	return built(e, e.init(&rangeKind, params{dims: cfg.Dims, domainSize: cfg.DomainSize,
		sizing: cfg.Sizing, maxLevel: cfg.MaxLevel, seed: cfg.Seed}))
}

// UnmarshalRangeEstimator reconstructs a working estimator from a Marshal
// snapshot: configuration, counters and count all round-trip.
func UnmarshalRangeEstimator(data []byte) (*RangeEstimator, error) {
	e := new(RangeEstimator)
	return built(e, e.unmarshal(data, KindRange))
}

// Config returns the estimator's configuration.
func (e *RangeEstimator) Config() RangeConfig {
	return RangeConfig{Dims: e.p.dims, DomainSize: e.p.domainSize, Sizing: e.p.sizing,
		MaxLevel: e.p.maxLevel, Seed: e.p.seed}
}

// Count returns the number of summarized objects.
func (e *RangeEstimator) Count() int64 { return e.count(0) }

// Insert adds an object to the summarized relation.
func (e *RangeEstimator) Insert(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Side: SideData, Rect: r})
}

// Delete removes a previously inserted object.
func (e *RangeEstimator) Delete(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Op: OpDelete, Side: SideData, Rect: r})
}

// InsertBulk bulk-loads objects (parallelized internally).
func (e *RangeEstimator) InsertBulk(rects []geo.HyperRect) error {
	return e.insertRects(SideData, rects)
}

// ValidateQuery checks a range query against the estimator's public
// configuration - dimensionality, interval sanity, domain bounds - without
// running it. Batch servers use it to reject individual malformed queries
// up front and still answer the rest of the batch.
func (e *RangeEstimator) ValidateQuery(q geo.HyperRect) error {
	if err := e.check(&e.k.sides[0], object{rect: q}); err != nil {
		return fmt.Errorf("spatial: bad range query: %w", err)
	}
	return nil
}

// queryView answers one range query from the current epoch view: validate,
// check the per-view memo against the raw query, and transform + run the
// kernel on a miss. Estimate, EstimateWithCount and Selectivity all route
// through here, so every caller sees the same (estimate, count) pair from
// one consistent view, and a repeated hot query on an unchanged estimator
// is a pointer load.
func (e *RangeEstimator) queryView(q geo.HyperRect) (est Estimate, count int64, err error) {
	if err := e.ValidateQuery(q); err != nil {
		return Estimate{}, 0, err
	}
	est, count, _, err = e.memo(memoRange, q, func(s shard) (core.Estimate, error) {
		return s[0].EstimateRange(geo.TransformShrinkRect(q))
	})
	return est, count, err
}

// Estimate returns the estimated number of summarized objects overlapping
// q (strict overlap, Definition 3).
func (e *RangeEstimator) Estimate(q geo.HyperRect) (Estimate, error) {
	est, _, err := e.queryView(q)
	return est, err
}

// EstimateWithCount returns Estimate(q) together with the relation size,
// both read from the same consistent view.
func (e *RangeEstimator) EstimateWithCount(q geo.HyperRect) (est Estimate, count int64, err error) {
	return e.queryView(q)
}

// Selectivity returns Estimate(q) / Count().
func (e *RangeEstimator) Selectivity(q geo.HyperRect) (float64, error) {
	est, n, err := e.queryView(q)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("spatial: selectivity undefined for an empty relation")
	}
	return est.Clamped() / float64(n), nil
}

// EstimateBatch answers many range queries against ONE pinned view with one
// scratch set: the view is resolved once for the whole batch (so all
// results are mutually consistent even under concurrent writers) and the
// estimate kernel reuses pooled query-side scratch across the queries. It
// also returns the relation size read from the same view.
func (e *RangeEstimator) EstimateBatch(qs []geo.HyperRect) ([]Estimate, int64, error) {
	for _, q := range qs {
		if err := e.ValidateQuery(q); err != nil {
			return nil, 0, err
		}
	}
	out := make([]Estimate, len(qs))
	var count int64
	err := e.view(func(v viewRef[shard]) error {
		s := v.state[0]
		sc := e.plan.GetScratch()
		defer e.plan.PutScratch(sc)
		for i, q := range qs {
			ce, err := s.EstimateRangeWith(geo.TransformShrinkRect(q), sc)
			if err != nil {
				return err
			}
			out[i] = fromCore(ce)
		}
		count = s.Count()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, count, nil
}

// Merge folds the synopsis of other into e: afterwards e summarizes the
// union of both estimators' inputs, exactly as if every object had been
// inserted into e directly (sketches are linear projections, so the merge
// is exact). The full public configurations must match. other is not
// modified; Merge is safe under concurrency.
func (e *RangeEstimator) Merge(other *RangeEstimator) error { return e.merge(&other.estimator) }

// MergeFrom merges a serialized synopsis (produced by Marshal on another
// estimator with a matching configuration) into this one. It is an alias
// of MergeSnapshot, kept for the edge-build-then-ship workflow's name.
func (e *RangeEstimator) MergeFrom(data []byte) error { return e.MergeSnapshot(data) }
