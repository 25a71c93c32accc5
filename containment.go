package spatial

import (
	"fmt"

	"repro/geo"
	"repro/internal/core"
)

// ContainmentConfig configures a containment-join estimator
// (Appendix B.2): count pairs (a, b) with the "inner" object a fully
// contained in the "outer" object b (closed containment in every
// dimension).
type ContainmentConfig struct {
	// Dims is the object dimensionality. Internally the estimator works in
	// 2*Dims dimensions (the B.2 reduction), so keep Dims <= 4.
	Dims int
	// DomainSize is the per-dimension coordinate domain.
	DomainSize uint64
	// Sizing picks the number of atomic instances. Note the reduction
	// doubles the dimensionality used for sizing.
	Sizing Sizing
	// MaxLevel caps the dyadic level (Section 6.5). Positive values are
	// explicit; 0 picks an adaptive default from the domain size;
	// MaxLevelUncapped disables the cap.
	MaxLevel int
	// Seed makes the synopsis deterministic.
	Seed uint64
}

// ContainmentEstimator estimates containment-join cardinalities via the
// paper's reduction: a d-dimensional object a = prod [l_i, u_i] is
// contained in b iff the 2d-dimensional point (l_1, u_1, ..., l_d, u_d)
// lies in the box prod [l(b_i), u(b_i)]^2, estimated with the Lemma 8
// point-in-box sketches. Shared endpoints are fine: containment is closed.
//
// A ContainmentEstimator is safe for concurrent use (see shard.go).
type ContainmentEstimator struct {
	cfg  ContainmentConfig
	plan *core.Plan
	st   *shardedState[*pointBoxState]
}

// NewContainmentEstimator validates the configuration and allocates the
// synopsis.
func NewContainmentEstimator(cfg ContainmentConfig) (*ContainmentEstimator, error) {
	if cfg.Dims < 1 || 2*cfg.Dims > core.MaxDims {
		return nil, fmt.Errorf("spatial: dims %d outside [1, %d] (the reduction doubles it)", cfg.Dims, core.MaxDims/2)
	}
	if cfg.DomainSize < 2 {
		return nil, fmt.Errorf("spatial: domain size must be >= 2, got %d", cfg.DomainSize)
	}
	rdims := 2 * cfg.Dims
	instances, groups, err := cfg.Sizing.resolve(rdims, core.PointBoxWordsPerRelation(rdims))
	if err != nil {
		return nil, err
	}
	h := maxInt(log2ceil(cfg.DomainSize), 1)
	logDom := make([]int, rdims)
	for i := range logDom {
		logDom[i] = h
	}
	ml := resolveMaxLevel(cfg.MaxLevel, cfg.DomainSize)
	var maxLevel []int
	if ml > 0 {
		maxLevel = make([]int, rdims)
		for i := range maxLevel {
			maxLevel[i] = ml
		}
	}
	plan, err := core.NewPlan(core.Config{
		Dims: rdims, LogDomain: logDom, MaxLevel: maxLevel,
		Instances: instances, Groups: groups, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	e := &ContainmentEstimator{cfg: cfg, plan: plan}
	e.st = newShardedState(ingestShards(), e.newState)
	return e, nil
}

func (e *ContainmentEstimator) newState() *pointBoxState {
	return &pointBoxState{pts: e.plan.NewPointSketch(), boxes: e.plan.NewBoxSketch()}
}

// Config returns the estimator's configuration.
func (e *ContainmentEstimator) Config() ContainmentConfig { return e.cfg }

// Instances returns the number of atomic estimator instances maintained.
func (e *ContainmentEstimator) Instances() int { return e.plan.Instances() }

// Groups returns the number of median groups (k2).
func (e *ContainmentEstimator) Groups() int { return e.plan.Groups() }

// SpaceWords returns the synopsis footprint in the paper's word accounting
// (one counter per side plus 2d shared seed words per instance, in the
// doubled dimensionality of the B.2 reduction).
func (e *ContainmentEstimator) SpaceWords() int {
	return e.plan.Instances() * (2 + 2*e.cfg.Dims)
}

func (e *ContainmentEstimator) check(r geo.HyperRect) error {
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

// InsertInner adds an object to the contained ("inner") side.
func (e *ContainmentEstimator) InsertInner(r geo.HyperRect) error { return e.updateInner(r, true) }

// DeleteInner removes a previously inserted inner object.
func (e *ContainmentEstimator) DeleteInner(r geo.HyperRect) error { return e.updateInner(r, false) }

func (e *ContainmentEstimator) updateInner(r geo.HyperRect, insert bool) error {
	if err := e.check(r); err != nil {
		return err
	}
	pt := core.ContainmentPoint(r)
	return e.st.ingest(func(s *pointBoxState) error {
		if insert {
			return s.pts.Insert(pt)
		}
		return s.pts.Delete(pt)
	})
}

// InsertOuter adds an object to the containing ("outer") side.
func (e *ContainmentEstimator) InsertOuter(r geo.HyperRect) error { return e.updateOuter(r, true) }

// DeleteOuter removes a previously inserted outer object.
func (e *ContainmentEstimator) DeleteOuter(r geo.HyperRect) error { return e.updateOuter(r, false) }

func (e *ContainmentEstimator) updateOuter(r geo.HyperRect, insert bool) error {
	if err := e.check(r); err != nil {
		return err
	}
	box := core.ContainmentBox(r)
	return e.st.ingest(func(s *pointBoxState) error {
		if insert {
			return s.boxes.Insert(box)
		}
		return s.boxes.Delete(box)
	})
}

// InsertInnerBulk bulk-loads inner objects (parallelized internally).
func (e *ContainmentEstimator) InsertInnerBulk(rects []geo.HyperRect) error {
	for _, r := range rects {
		if err := e.check(r); err != nil {
			return err
		}
	}
	pts := make([]geo.Point, len(rects))
	for i, r := range rects {
		pts[i] = core.ContainmentPoint(r)
	}
	return e.st.ingest(func(s *pointBoxState) error { return s.pts.InsertAll(pts) })
}

// InsertOuterBulk bulk-loads outer objects.
func (e *ContainmentEstimator) InsertOuterBulk(rects []geo.HyperRect) error {
	for _, r := range rects {
		if err := e.check(r); err != nil {
			return err
		}
	}
	boxes := make([]geo.HyperRect, len(rects))
	for i, r := range rects {
		boxes[i] = core.ContainmentBox(r)
	}
	return e.st.ingest(func(s *pointBoxState) error { return s.boxes.InsertAll(boxes) })
}

// Apply replays one update record through the estimator's public update
// path (see JoinEstimator.Apply).
func (e *ContainmentEstimator) Apply(rec UpdateRecord) error {
	if rec.Rect == nil {
		return fmt.Errorf("spatial: containment estimators take rects, record carries a point")
	}
	switch {
	case rec.Side == SideInner && rec.Op == OpInsert:
		return e.InsertInner(rec.Rect)
	case rec.Side == SideInner && rec.Op == OpDelete:
		return e.DeleteInner(rec.Rect)
	case rec.Side == SideOuter && rec.Op == OpInsert:
		return e.InsertOuter(rec.Rect)
	case rec.Side == SideOuter && rec.Op == OpDelete:
		return e.DeleteOuter(rec.Rect)
	}
	return fmt.Errorf("spatial: containment estimators have no %v side", rec.Side)
}

// ValidateRecord checks rec against this estimator's input contract -
// exactly the validation Apply performs - without applying it (see
// JoinEstimator.ValidateRecord).
func (e *ContainmentEstimator) ValidateRecord(rec UpdateRecord) error {
	if rec.Rect == nil {
		return fmt.Errorf("spatial: containment estimators take rects, record carries a point")
	}
	if rec.Side != SideInner && rec.Side != SideOuter {
		return fmt.Errorf("spatial: containment estimators have no %v side", rec.Side)
	}
	return e.check(rec.Rect)
}

// header returns the full public configuration of this estimator.
func (e *ContainmentEstimator) header() snapHeader {
	return snapHeader{
		kind:       KindContainment,
		dims:       uint32(e.cfg.Dims),
		domainSize: e.cfg.DomainSize,
		maxLevel:   int32(resolveMaxLevel(e.cfg.MaxLevel, e.cfg.DomainSize)),
		seed:       e.cfg.Seed,
		instances:  uint64(e.plan.Instances()),
		groups:     uint64(e.plan.Groups()),
	}
}

// Merge folds the synopses of other into e (exact, by sketch linearity).
// The full public configurations must match. other is not modified; Merge
// is safe under concurrency.
func (e *ContainmentEstimator) Merge(other *ContainmentEstimator) error {
	if err := e.header().compatible(other.header()); err != nil {
		return err
	}
	snap, err := other.st.snapshot(other.newState, mergePointBoxState)
	if err != nil {
		return err
	}
	return e.st.ingestFirst(func(s *pointBoxState) error { return mergePointBoxState(s, snap) })
}

// InnerCount returns the inner-side cardinality.
func (e *ContainmentEstimator) InnerCount() int64 {
	var n int64
	e.st.fold(func(s *pointBoxState) error {
		n += s.pts.Count()
		return nil
	})
	return n
}

// OuterCount returns the outer-side cardinality.
func (e *ContainmentEstimator) OuterCount() int64 {
	var n int64
	e.st.fold(func(s *pointBoxState) error {
		n += s.boxes.Count()
		return nil
	})
	return n
}

// Cardinality estimates the number of (inner, outer) pairs with the inner
// object contained in the outer one.
func (e *ContainmentEstimator) Cardinality() (Estimate, error) {
	est, _, _, err := pointBoxCardinality(e.st, e.newState)
	return est, err
}

// CardinalityWithCounts returns Cardinality together with the inner and
// outer cardinalities, all read from the same consistent view.
func (e *ContainmentEstimator) CardinalityWithCounts() (est Estimate, inner, outer int64, err error) {
	return pointBoxCardinality(e.st, e.newState)
}

// Selectivity estimates Cardinality / (|inner| * |outer|).
func (e *ContainmentEstimator) Selectivity() (float64, error) {
	est, ni, no, err := pointBoxCardinality(e.st, e.newState)
	if err != nil {
		return 0, err
	}
	if ni <= 0 || no <= 0 {
		return 0, fmt.Errorf("spatial: selectivity undefined for empty inputs (%d, %d)", ni, no)
	}
	return est.Clamped() / (float64(ni) * float64(no)), nil
}

// Version returns the estimator's write version: a counter that grows by
// one with every write that reaches the sketches - insert, delete, bulk
// insert or merge - and never falls. A Marshal bracketed by two Version
// reads that agree returns the bytes of exactly that version, so
// (estimator, Version) can validate a snapshot without marshaling it.
// Safe for concurrent use.
func (e *ContainmentEstimator) Version() uint64 { return e.st.version() }

// Marshal serializes the whole estimator - both synopses plus the full
// public configuration - into a versioned snapshot envelope; see
// UnmarshalContainmentEstimator.
func (e *ContainmentEstimator) Marshal() ([]byte, error) {
	blobs, err := marshalPointBox(e.st, e.newState)
	if err != nil {
		return nil, err
	}
	return marshalEnvelope(e.header(), blobs), nil
}

// UnmarshalContainmentEstimator reconstructs a working estimator from a
// Marshal snapshot: configuration, counters and counts all round-trip.
func UnmarshalContainmentEstimator(data []byte) (*ContainmentEstimator, error) {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return nil, err
	}
	if err := h.expectBlobs(blobs, KindContainment, 2); err != nil {
		return nil, err
	}
	e, err := NewContainmentEstimator(ContainmentConfig{
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
	return e, mergePointBoxBlobs(e.st, blobs)
}

// MergeSnapshot folds a Marshal snapshot produced by another estimator
// into this one, rejecting any public-config mismatch at decode time.
func (e *ContainmentEstimator) MergeSnapshot(data []byte) error {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return err
	}
	if err := h.expectBlobs(blobs, KindContainment, 2); err != nil {
		return err
	}
	if err := e.header().compatible(h); err != nil {
		return err
	}
	return mergePointBoxBlobs(e.st, blobs)
}
