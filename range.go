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
type RangeEstimator struct {
	cfg  RangeConfig
	plan *core.Plan
	st   *shardedState[*core.RangeSketch]
}

// NewRangeEstimator validates the configuration and allocates the synopsis.
func NewRangeEstimator(cfg RangeConfig) (*RangeEstimator, error) {
	if cfg.Dims < 1 || cfg.Dims > core.MaxDims {
		return nil, fmt.Errorf("spatial: dims %d outside [1, %d]", cfg.Dims, core.MaxDims)
	}
	if cfg.DomainSize < 2 {
		return nil, fmt.Errorf("spatial: domain size must be >= 2, got %d", cfg.DomainSize)
	}
	instances, groups, err := cfg.Sizing.resolve(cfg.Dims, core.RangeWordsPerInstance(cfg.Dims))
	if err != nil {
		return nil, err
	}
	h := log2ceil(geo.TransformDomain(cfg.DomainSize))
	logDom := make([]int, cfg.Dims)
	var maxLevel []int
	for i := range logDom {
		logDom[i] = h
	}
	if ml := resolveMaxLevel(cfg.MaxLevel, cfg.DomainSize); ml > 0 {
		maxLevel = make([]int, cfg.Dims)
		for i := range maxLevel {
			maxLevel[i] = ml
		}
	}
	plan, err := core.NewPlan(core.Config{
		Dims: cfg.Dims, LogDomain: logDom, MaxLevel: maxLevel,
		Instances: instances, Groups: groups, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	e := &RangeEstimator{cfg: cfg, plan: plan}
	e.st = newShardedState(ingestShards(), plan.NewRangeSketch)
	return e, nil
}

// Config returns the estimator's configuration.
func (e *RangeEstimator) Config() RangeConfig { return e.cfg }

// Instances returns the number of atomic estimator instances maintained.
func (e *RangeEstimator) Instances() int { return e.plan.Instances() }

// Groups returns the number of median groups (k2).
func (e *RangeEstimator) Groups() int { return e.plan.Groups() }

// SpaceWords returns the synopsis footprint in the paper's word accounting
// (2^d counters plus d seed words per instance).
func (e *RangeEstimator) SpaceWords() int {
	return int(core.RangeWordsPerInstance(e.cfg.Dims)) * e.plan.Instances()
}

// Count returns the number of summarized objects.
func (e *RangeEstimator) Count() int64 {
	var n int64
	e.st.fold(func(s *core.RangeSketch) error {
		n += s.Count()
		return nil
	})
	return n
}

func (e *RangeEstimator) check(r geo.HyperRect) error {
	if len(r) != e.cfg.Dims {
		return fmt.Errorf("spatial: dimensionality %d, want %d", len(r), e.cfg.Dims)
	}
	for i, iv := range r {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("spatial: invalid interval [%d, %d] in dim %d", iv.Lo, iv.Hi, i)
		}
		if iv.Hi >= e.cfg.DomainSize {
			return fmt.Errorf("spatial: coordinate %d outside domain %d in dim %d", iv.Hi, e.cfg.DomainSize, i)
		}
	}
	return nil
}

// Insert adds an object to the summarized relation.
func (e *RangeEstimator) Insert(r geo.HyperRect) error { return e.update(r, true) }

// Delete removes a previously inserted object.
func (e *RangeEstimator) Delete(r geo.HyperRect) error { return e.update(r, false) }

func (e *RangeEstimator) update(r geo.HyperRect, insert bool) error {
	if err := e.check(r); err != nil {
		return err
	}
	t := geo.TransformKeepRect(r)
	return e.st.ingest(func(s *core.RangeSketch) error {
		if insert {
			return s.Insert(t)
		}
		return s.Delete(t)
	})
}

// InsertBulk bulk-loads objects (parallelized internally).
func (e *RangeEstimator) InsertBulk(rects []geo.HyperRect) error {
	for _, r := range rects {
		if err := e.check(r); err != nil {
			return err
		}
	}
	t := make([]geo.HyperRect, len(rects))
	for i, r := range rects {
		t[i] = geo.TransformKeepRect(r)
	}
	return e.st.ingest(func(s *core.RangeSketch) error { return s.InsertAll(t) })
}

// Apply replays one update record through the estimator's public update
// path (see JoinEstimator.Apply).
func (e *RangeEstimator) Apply(rec UpdateRecord) error {
	if rec.Rect == nil {
		return fmt.Errorf("spatial: range estimators take rects, record carries a point")
	}
	if rec.Side != SideData {
		return fmt.Errorf("spatial: range estimators have no %v side", rec.Side)
	}
	if rec.Op == OpDelete {
		return e.Delete(rec.Rect)
	}
	return e.Insert(rec.Rect)
}

// ValidateRecord checks rec against this estimator's input contract -
// exactly the validation Apply performs - without applying it (see
// JoinEstimator.ValidateRecord).
func (e *RangeEstimator) ValidateRecord(rec UpdateRecord) error {
	if rec.Rect == nil {
		return fmt.Errorf("spatial: range estimators take rects, record carries a point")
	}
	if rec.Side != SideData {
		return fmt.Errorf("spatial: range estimators have no %v side", rec.Side)
	}
	return e.check(rec.Rect)
}

// mergeRangeSketch adapts core merging to the shard helper.
func mergeRangeSketch(dst, src *core.RangeSketch) error { return dst.Merge(src) }

// queryView answers one range query from the current epoch view: validate,
// check the per-view memo against the raw query, and transform + run the
// kernel on a miss. Estimate, EstimateWithCount and Selectivity all route
// through here, so every caller sees the same (estimate, count) pair from
// one consistent view, and a repeated hot query on an unchanged estimator
// is a pointer load.
func (e *RangeEstimator) queryView(q geo.HyperRect) (est Estimate, count int64, err error) {
	if err := e.check(q); err != nil {
		return Estimate{}, 0, fmt.Errorf("spatial: bad range query: %w", err)
	}
	err = e.st.view(e.plan.NewRangeSketch, mergeRangeSketch, func(v viewRef[*core.RangeSketch]) error {
		var err error
		est, count, _, err = v.memoized(memoRange, q, func() (Estimate, int64, int64, error) {
			ce, err := v.state.EstimateRange(geo.TransformShrinkRect(q))
			if err != nil {
				return Estimate{}, 0, 0, err
			}
			return fromCore(ce), v.state.Count(), 0, nil
		})
		return err
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

// ValidateQuery checks a range query against the estimator's public
// configuration - dimensionality, interval sanity, domain bounds - without
// running it. Batch servers use it to reject individual malformed queries
// up front and still answer the rest of the batch.
func (e *RangeEstimator) ValidateQuery(q geo.HyperRect) error {
	if err := e.check(q); err != nil {
		return fmt.Errorf("spatial: bad range query: %w", err)
	}
	return nil
}

// EstimateBatch answers many range queries against ONE pinned view with one
// scratch set: the view is resolved once for the whole batch (so all
// results are mutually consistent even under concurrent writers) and the
// estimate kernel reuses pooled query-side scratch across the queries. It
// also returns the relation size read from the same view.
func (e *RangeEstimator) EstimateBatch(qs []geo.HyperRect) ([]Estimate, int64, error) {
	for _, q := range qs {
		if err := e.check(q); err != nil {
			return nil, 0, fmt.Errorf("spatial: bad range query: %w", err)
		}
	}
	out := make([]Estimate, len(qs))
	var count int64
	err := e.st.view(e.plan.NewRangeSketch, mergeRangeSketch, func(v viewRef[*core.RangeSketch]) error {
		sc := e.plan.GetScratch()
		defer e.plan.PutScratch(sc)
		for i, q := range qs {
			ce, err := v.state.EstimateRangeWith(geo.TransformShrinkRect(q), sc)
			if err != nil {
				return err
			}
			out[i] = fromCore(ce)
		}
		count = v.state.Count()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, count, nil
}

// header returns the full public configuration of this estimator.
func (e *RangeEstimator) header() snapHeader {
	return snapHeader{
		kind:       KindRange,
		dims:       uint32(e.cfg.Dims),
		domainSize: e.cfg.DomainSize,
		maxLevel:   int32(resolveMaxLevel(e.cfg.MaxLevel, e.cfg.DomainSize)),
		seed:       e.cfg.Seed,
		instances:  uint64(e.plan.Instances()),
		groups:     uint64(e.plan.Groups()),
	}
}

// Merge folds the synopsis of other into e: afterwards e summarizes the
// union of both estimators' inputs, exactly as if every object had been
// inserted into e directly (sketches are linear projections, so the merge
// is exact). The full public configurations must match. other is not
// modified; Merge is safe under concurrency.
func (e *RangeEstimator) Merge(other *RangeEstimator) error {
	if err := e.header().compatible(other.header()); err != nil {
		return err
	}
	snap, err := other.st.snapshot(other.plan.NewRangeSketch, mergeRangeSketch)
	if err != nil {
		return err
	}
	return e.st.ingestFirst(func(s *core.RangeSketch) error { return s.Merge(snap) })
}

// Version returns the estimator's write version: a counter that grows by
// one with every write that reaches the sketches - insert, delete, bulk
// insert or merge - and never falls. A Marshal bracketed by two Version
// reads that agree returns the bytes of exactly that version, so
// (estimator, Version) can validate a snapshot without marshaling it.
// Safe for concurrent use.
func (e *RangeEstimator) Version() uint64 { return e.st.version() }

// Marshal serializes the whole estimator - synopsis plus full public
// configuration - into a versioned snapshot envelope; see
// UnmarshalRangeEstimator.
func (e *RangeEstimator) Marshal() ([]byte, error) {
	var blob []byte
	err := e.st.view(e.plan.NewRangeSketch, mergeRangeSketch, func(v viewRef[*core.RangeSketch]) error {
		var err error
		blob, err = v.state.MarshalBinary()
		return err
	})
	if err != nil {
		return nil, err
	}
	return marshalEnvelope(e.header(), [][]byte{blob}), nil
}

// UnmarshalRangeEstimator reconstructs a working estimator from a Marshal
// snapshot: configuration, counters and count all round-trip.
func UnmarshalRangeEstimator(data []byte) (*RangeEstimator, error) {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return nil, err
	}
	if err := h.expectBlobs(blobs, KindRange, 1); err != nil {
		return nil, err
	}
	e, err := NewRangeEstimator(RangeConfig{
		Dims:       int(h.dims),
		DomainSize: h.domainSize,
		Sizing:     Sizing{Instances: int(h.instances), Groups: int(h.groups)},
		MaxLevel:   configuredMaxLevel(h.maxLevel),
		Seed:       h.seed,
	})
	if err != nil {
		return nil, err
	}
	if err := e.header().compatible(h); err != nil {
		return nil, fmt.Errorf("spatial: inconsistent snapshot configuration: %w", err)
	}
	return e, e.mergeBlob(blobs[0])
}

func (e *RangeEstimator) mergeBlob(blob []byte) error {
	other, err := core.UnmarshalRangeSketch(blob)
	if err != nil {
		return err
	}
	return e.st.ingestFirst(func(s *core.RangeSketch) error { return s.Merge(other) })
}

// MergeSnapshot folds a Marshal snapshot produced by another estimator
// into this one, rejecting any public-config mismatch at decode time.
func (e *RangeEstimator) MergeSnapshot(data []byte) error {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return err
	}
	if err := h.expectBlobs(blobs, KindRange, 1); err != nil {
		return err
	}
	if err := e.header().compatible(h); err != nil {
		return err
	}
	return e.mergeBlob(blobs[0])
}

// MergeFrom merges a serialized synopsis (produced by Marshal on another
// estimator with a matching configuration) into this one. It is an alias
// of MergeSnapshot, kept for the edge-build-then-ship workflow's name.
func (e *RangeEstimator) MergeFrom(data []byte) error { return e.MergeSnapshot(data) }
