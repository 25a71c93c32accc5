package spatial

import (
	"fmt"
	"math/bits"

	"repro/geo"
	"repro/internal/core"
)

// JoinConfig configures a spatial join estimator.
type JoinConfig struct {
	// Dims is the data dimensionality (1 = interval joins, 2 = rectangle
	// joins, higher per Section 6.1).
	Dims int
	// DomainSize is the per-dimension coordinate domain: all inserted
	// coordinates must be < DomainSize. (Internally the domain is tripled
	// and padded to a power of two in ModeTransform.)
	DomainSize uint64
	// Sizing picks the number of atomic instances; see Sizing.
	Sizing Sizing
	// MaxLevel caps the dyadic level of covers (Section 6.5 adaptive
	// sketches). Positive values are explicit (good values sit near
	// log2 of the mean object side length plus one); 0 picks an adaptive
	// default from the domain size; MaxLevelUncapped disables the cap.
	MaxLevel int
	// Mode selects transform-based (default) or explicit common-endpoint
	// handling.
	Mode Mode
	// Seed makes the synopsis deterministic; both sides derive their
	// correlated xi-families from it.
	Seed uint64
}

// joinState is one ingest shard of a join estimator: exactly one sketch
// pair is non-nil, per mode.
type joinState struct {
	left, right     *core.JoinSketch
	leftCE, rightCE *core.CESketch
}

// JoinEstimator estimates the cardinality and selectivity of the spatial
// join R join_o S (Definition 1) from single-pass synopses of R (the
// "left" input) and S (the "right" input). It supports inserts and
// deletes on both sides and, in ModeCommonEndpoints, also the extended
// join of Definition 4.
//
// A JoinEstimator is safe for concurrent use: updates go to per-shard
// sketches behind sharded locks, and estimates/snapshots fold the shards
// into an owned view, holding each shard lock only while copying its
// counters (see shard.go).
type JoinEstimator struct {
	cfg  JoinConfig
	plan *core.Plan
	st   *shardedState[*joinState]
}

// NewJoinEstimator validates the configuration and allocates the synopsis.
func NewJoinEstimator(cfg JoinConfig) (*JoinEstimator, error) {
	if cfg.Dims < 1 || cfg.Dims > core.MaxDims {
		return nil, fmt.Errorf("spatial: dims %d outside [1, %d]", cfg.Dims, core.MaxDims)
	}
	if cfg.DomainSize < 2 {
		return nil, fmt.Errorf("spatial: domain size must be >= 2, got %d", cfg.DomainSize)
	}
	words := core.JoinWordsPerRelation(cfg.Dims)
	if cfg.Mode == ModeCommonEndpoints {
		words = core.CEJoinWordsPerRelation(cfg.Dims)
	}
	instances, groups, err := cfg.Sizing.resolve(cfg.Dims, words)
	if err != nil {
		return nil, err
	}
	size := cfg.DomainSize
	if cfg.Mode == ModeTransform {
		size = geo.TransformDomain(size)
	}
	h := log2ceil(size)
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
	e := &JoinEstimator{cfg: cfg, plan: plan}
	e.st = newShardedState(ingestShards(), e.newState)
	return e, nil
}

// newState allocates one empty shard's sketch pair.
func (e *JoinEstimator) newState() *joinState {
	if e.cfg.Mode == ModeCommonEndpoints {
		return &joinState{leftCE: e.plan.NewCESketch(), rightCE: e.plan.NewCESketch()}
	}
	return &joinState{left: e.plan.NewJoinSketch(), right: e.plan.NewJoinSketch()}
}

// mergeJoinState folds src's counters into dst (exact, by linearity).
func mergeJoinState(dst, src *joinState) error {
	if dst.leftCE != nil {
		if err := dst.leftCE.Merge(src.leftCE); err != nil {
			return err
		}
		return dst.rightCE.Merge(src.rightCE)
	}
	if err := dst.left.Merge(src.left); err != nil {
		return err
	}
	return dst.right.Merge(src.right)
}

// withView runs fn on a consistent read-only view of the whole estimator.
func (e *JoinEstimator) withView(fn func(viewRef[*joinState]) error) error {
	return e.st.view(e.newState, mergeJoinState, fn)
}

// cardinalityView computes (estimate, left count, right count) for the
// strict or extended join from one epoch view, memoized per view.
// Cardinality, CardinalityWithCounts, their extended variants and
// Selectivity all route through here: one kernel run per view serves every
// caller, and all of them see counts consistent with the estimate.
func (e *JoinEstimator) cardinalityView(extended bool) (est Estimate, left, right int64, err error) {
	slot := memoCardinality
	if extended {
		slot = memoExtended
	}
	err = e.withView(func(v viewRef[*joinState]) error {
		var err error
		est, left, right, err = v.memoized(slot, nil, func() (Estimate, int64, int64, error) {
			s := v.state
			var ce core.Estimate
			var err error
			switch {
			case extended:
				ce, err = core.EstimateJoinExtCE(s.leftCE, s.rightCE)
			case s.leftCE != nil:
				ce, err = core.EstimateJoinCE(s.leftCE, s.rightCE)
			default:
				ce, err = core.EstimateJoin(s.left, s.right)
			}
			if err != nil {
				return Estimate{}, 0, 0, err
			}
			var l, r int64
			if s.leftCE != nil {
				l, r = s.leftCE.Count(), s.rightCE.Count()
			} else {
				l, r = s.left.Count(), s.right.Count()
			}
			return fromCore(ce), l, r, nil
		})
		return err
	})
	return est, left, right, err
}

// Config returns the estimator's configuration.
func (e *JoinEstimator) Config() JoinConfig { return e.cfg }

// Instances returns the number of atomic estimator instances maintained.
func (e *JoinEstimator) Instances() int { return e.plan.Instances() }

// Groups returns the number of median groups (k2).
func (e *JoinEstimator) Groups() int { return e.plan.Groups() }

// SpaceWords returns the synopsis footprint in the paper's word accounting
// (counters plus seed words for both sides; Section 4.1.5 / Section 7).
// Ingest sharding replicates counters per shard at runtime; the paper
// accounting describes the logical (merged, serialized) synopsis.
func (e *JoinEstimator) SpaceWords() int {
	if e.cfg.Mode == ModeCommonEndpoints {
		// 4^d counters per side plus d seed words per instance.
		per := 2*pow(4, e.cfg.Dims) + e.cfg.Dims
		return e.plan.Instances() * per
	}
	return core.JoinSpaceWords(e.cfg.Dims, e.plan.Instances())
}

func (e *JoinEstimator) checkInput(r geo.HyperRect) error {
	if len(r) != e.cfg.Dims {
		return fmt.Errorf("spatial: object dimensionality %d, want %d", len(r), e.cfg.Dims)
	}
	for i, iv := range r {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("spatial: invalid interval [%d, %d] in dim %d", iv.Lo, iv.Hi, i)
		}
		if iv.Hi >= e.cfg.DomainSize {
			return fmt.Errorf("spatial: coordinate %d outside domain %d in dim %d", iv.Hi, e.cfg.DomainSize, i)
		}
		if iv.IsPoint() {
			return fmt.Errorf("spatial: degenerate interval [%d, %d] in dim %d: the overlap join of Definition 1 assumes objects with extent (Section 4.1); use range or epsilon-join estimators for point data", iv.Lo, iv.Hi, i)
		}
	}
	return nil
}

// InsertLeft adds an object to the left input (R).
func (e *JoinEstimator) InsertLeft(r geo.HyperRect) error { return e.updateLeft(r, true) }

// DeleteLeft removes a previously inserted left object.
func (e *JoinEstimator) DeleteLeft(r geo.HyperRect) error { return e.updateLeft(r, false) }

// InsertRight adds an object to the right input (S).
func (e *JoinEstimator) InsertRight(r geo.HyperRect) error { return e.updateRight(r, true) }

// DeleteRight removes a previously inserted right object.
func (e *JoinEstimator) DeleteRight(r geo.HyperRect) error { return e.updateRight(r, false) }

func (e *JoinEstimator) updateLeft(r geo.HyperRect, insert bool) error {
	if err := e.checkInput(r); err != nil {
		return err
	}
	return e.st.ingest(func(s *joinState) error {
		if s.leftCE != nil {
			if insert {
				return s.leftCE.Insert(r)
			}
			return s.leftCE.Delete(r)
		}
		t := geo.TransformKeepRect(r)
		if insert {
			return s.left.Insert(t)
		}
		return s.left.Delete(t)
	})
}

func (e *JoinEstimator) updateRight(r geo.HyperRect, insert bool) error {
	if err := e.checkInput(r); err != nil {
		return err
	}
	return e.st.ingest(func(s *joinState) error {
		if s.rightCE != nil {
			if insert {
				return s.rightCE.Insert(r)
			}
			return s.rightCE.Delete(r)
		}
		t := geo.TransformShrinkRect(r)
		if insert {
			return s.right.Insert(t)
		}
		return s.right.Delete(t)
	})
}

// InsertLeftBulk bulk-loads the left input (parallelized internally in
// ModeTransform).
func (e *JoinEstimator) InsertLeftBulk(rects []geo.HyperRect) error {
	for _, r := range rects {
		if err := e.checkInput(r); err != nil {
			return err
		}
	}
	var t []geo.HyperRect
	if e.cfg.Mode == ModeTransform {
		t = make([]geo.HyperRect, len(rects))
		for i, r := range rects {
			t[i] = geo.TransformKeepRect(r)
		}
	}
	return e.st.ingest(func(s *joinState) error {
		if s.leftCE != nil {
			return s.leftCE.InsertAll(rects)
		}
		return s.left.InsertAll(t)
	})
}

// InsertRightBulk bulk-loads the right input.
func (e *JoinEstimator) InsertRightBulk(rects []geo.HyperRect) error {
	for _, r := range rects {
		if err := e.checkInput(r); err != nil {
			return err
		}
	}
	var t []geo.HyperRect
	if e.cfg.Mode == ModeTransform {
		t = make([]geo.HyperRect, len(rects))
		for i, r := range rects {
			t[i] = geo.TransformShrinkRect(r)
		}
	}
	return e.st.ingest(func(s *joinState) error {
		if s.rightCE != nil {
			return s.rightCE.InsertAll(rects)
		}
		return s.right.InsertAll(t)
	})
}

// Apply replays one update record through the estimator's public update
// path: feeding every update of one estimator, as records, into Apply on a
// same-config empty estimator reconstructs its counters bit-identically
// (updates commute, so order does not matter). A write-ahead log of
// records (AppendBinary) replays this way.
func (e *JoinEstimator) Apply(rec UpdateRecord) error {
	if rec.Rect == nil {
		return fmt.Errorf("spatial: join estimators take rects, record carries a point")
	}
	switch {
	case rec.Side == SideLeft && rec.Op == OpInsert:
		return e.InsertLeft(rec.Rect)
	case rec.Side == SideLeft && rec.Op == OpDelete:
		return e.DeleteLeft(rec.Rect)
	case rec.Side == SideRight && rec.Op == OpInsert:
		return e.InsertRight(rec.Rect)
	case rec.Side == SideRight && rec.Op == OpDelete:
		return e.DeleteRight(rec.Rect)
	}
	return fmt.Errorf("spatial: join estimators have no %v side", rec.Side)
}

// ValidateRecord checks rec against this estimator's input contract -
// exactly the validation Apply performs - without applying it. A record
// that passes can be journaled ahead of its apply: the later Apply cannot
// fail validation.
func (e *JoinEstimator) ValidateRecord(rec UpdateRecord) error {
	if rec.Rect == nil {
		return fmt.Errorf("spatial: join estimators take rects, record carries a point")
	}
	if rec.Side != SideLeft && rec.Side != SideRight {
		return fmt.Errorf("spatial: join estimators have no %v side", rec.Side)
	}
	return e.checkInput(rec.Rect)
}

// LeftCount returns the current left input cardinality (inserts minus
// deletes).
func (e *JoinEstimator) LeftCount() int64 {
	var n int64
	e.st.fold(func(s *joinState) error {
		if s.leftCE != nil {
			n += s.leftCE.Count()
		} else {
			n += s.left.Count()
		}
		return nil
	})
	return n
}

// RightCount returns the right input cardinality.
func (e *JoinEstimator) RightCount() int64 {
	var n int64
	e.st.fold(func(s *joinState) error {
		if s.rightCE != nil {
			n += s.rightCE.Count()
		} else {
			n += s.right.Count()
		}
		return nil
	})
	return n
}

// Cardinality estimates |R join_o S| (strict overlap, Definition 1).
func (e *JoinEstimator) Cardinality() (Estimate, error) {
	est, _, _, err := e.cardinalityView(false)
	return est, err
}

// CardinalityExtended estimates the extended join |R join+_o S| of
// Definition 4 (objects meeting at their boundaries count). Only available
// in ModeCommonEndpoints.
func (e *JoinEstimator) CardinalityExtended() (Estimate, error) {
	if e.cfg.Mode != ModeCommonEndpoints {
		return Estimate{}, fmt.Errorf("spatial: extended join requires ModeCommonEndpoints")
	}
	est, _, _, err := e.cardinalityView(true)
	return est, err
}

// CardinalityWithCounts returns Cardinality together with the input
// cardinalities, all read from the same consistent view - under
// concurrent writers, the counts are guaranteed to be the ones the
// estimate was computed against (Cardinality followed by LeftCount can
// interleave with updates).
func (e *JoinEstimator) CardinalityWithCounts() (est Estimate, left, right int64, err error) {
	return e.cardinalityView(false)
}

// CardinalityExtendedWithCounts is CardinalityWithCounts for the extended
// join of Definition 4 (ModeCommonEndpoints only).
func (e *JoinEstimator) CardinalityExtendedWithCounts() (est Estimate, left, right int64, err error) {
	if e.cfg.Mode != ModeCommonEndpoints {
		return Estimate{}, 0, 0, fmt.Errorf("spatial: extended join requires ModeCommonEndpoints")
	}
	return e.cardinalityView(true)
}

// Selectivity estimates |R join_o S| / (|R| * |S|).
func (e *JoinEstimator) Selectivity() (float64, error) {
	est, nl, nr, err := e.cardinalityView(false)
	if err != nil {
		return 0, err
	}
	if nl <= 0 || nr <= 0 {
		return 0, fmt.Errorf("spatial: selectivity undefined for empty inputs (%d, %d)", nl, nr)
	}
	return est.Clamped() / (float64(nl) * float64(nr)), nil
}

// selfJoinView estimates SJ of one side from its own synopsis, memoized per
// view.
func (e *JoinEstimator) selfJoinView(slot int) (Estimate, error) {
	var est Estimate
	err := e.withView(func(v viewRef[*joinState]) error {
		var err error
		est, _, _, err = v.memoized(slot, nil, func() (Estimate, int64, int64, error) {
			side := v.state.left
			if slot == memoSelfJoinRight {
				side = v.state.right
			}
			return fromCore(side.EstimateSelfJoin()), 0, 0, nil
		})
		return err
	})
	return est, err
}

// EstimateSelfJoinLeft estimates SJ(R) from the left synopsis itself
// (E[X_w^2] = SJ(X_w), the original AMS identity) - the input the
// Theorem 1 planner needs, with no offline pass. ModeTransform only.
func (e *JoinEstimator) EstimateSelfJoinLeft() (Estimate, error) {
	if e.cfg.Mode != ModeTransform {
		return Estimate{}, fmt.Errorf("spatial: self-join estimation is supported in ModeTransform only")
	}
	return e.selfJoinView(memoSelfJoinLeft)
}

// EstimateSelfJoinRight estimates SJ(S) from the right synopsis.
func (e *JoinEstimator) EstimateSelfJoinRight() (Estimate, error) {
	if e.cfg.Mode != ModeTransform {
		return Estimate{}, fmt.Errorf("spatial: self-join estimation is supported in ModeTransform only")
	}
	return e.selfJoinView(memoSelfJoinRight)
}

// header returns the full public configuration of this estimator, the
// unit of comparison for every merge and snapshot operation.
func (e *JoinEstimator) header() snapHeader {
	return snapHeader{
		kind:       KindJoin,
		dims:       uint32(e.cfg.Dims),
		domainSize: e.cfg.DomainSize,
		mode:       uint32(e.cfg.Mode),
		maxLevel:   int32(resolveMaxLevel(e.cfg.MaxLevel, e.cfg.DomainSize)),
		seed:       e.cfg.Seed,
		instances:  uint64(e.plan.Instances()),
		groups:     uint64(e.plan.Groups()),
	}
}

// Merge folds the synopses of other into e: afterwards e summarizes the
// union of both estimators' inputs, exactly as if every object had been
// inserted into e directly (sketches are linear projections, so the merge
// is exact, not approximate). The full public configurations must match -
// in particular the same Seed (shared xi-families) and the same DomainSize
// (1000 and 1024 round to the same internal plan but enforce different
// input bounds, so they do NOT merge). other is not modified.
//
// This is the shard-and-combine pattern for distributed construction:
// build one estimator per data shard (separate goroutines, processes or
// machines - see MergeSnapshot for the serialized variant), then merge.
// Merge is safe under concurrency; other is snapshotted first, so no
// goroutine ever holds locks of both estimators at once.
func (e *JoinEstimator) Merge(other *JoinEstimator) error {
	if err := e.header().compatible(other.header()); err != nil {
		return err
	}
	snap, err := other.st.snapshot(other.newState, mergeJoinState)
	if err != nil {
		return err
	}
	return e.st.ingestFirst(func(s *joinState) error { return mergeJoinState(s, snap) })
}

// Version returns the estimator's write version: a counter that grows by
// one with every write that reaches the sketches - insert, delete, bulk
// insert or merge - and never falls. A Marshal bracketed by two Version
// reads that agree returns the bytes of exactly that version, so
// (estimator, Version) can validate a snapshot without marshaling it.
// Safe for concurrent use.
func (e *JoinEstimator) Version() uint64 { return e.st.version() }

// Marshal serializes the whole estimator - both synopses plus the full
// public configuration - into a versioned snapshot envelope. The snapshot
// round-trips through UnmarshalJoinEstimator to a working estimator whose
// estimates are bit-identical to this one's. Both modes are supported.
func (e *JoinEstimator) Marshal() ([]byte, error) {
	var blobs [][]byte
	err := e.withView(func(v viewRef[*joinState]) error {
		s := v.state
		var lb, rb []byte
		var err error
		if s.leftCE != nil {
			if lb, err = s.leftCE.MarshalBinary(); err != nil {
				return err
			}
			rb, err = s.rightCE.MarshalBinary()
		} else {
			if lb, err = s.left.MarshalBinary(); err != nil {
				return err
			}
			rb, err = s.right.MarshalBinary()
		}
		blobs = [][]byte{lb, rb}
		return err
	})
	if err != nil {
		return nil, err
	}
	h := e.header()
	h.side = sideBoth
	return marshalEnvelope(h, blobs), nil
}

// UnmarshalJoinEstimator reconstructs a working estimator from a Marshal
// snapshot: configuration, counters and counts all round-trip.
func UnmarshalJoinEstimator(data []byte) (*JoinEstimator, error) {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return nil, err
	}
	if err := h.expectBlobs(blobs, KindJoin, 2); err != nil {
		return nil, err
	}
	if h.side != sideBoth {
		return nil, fmt.Errorf("spatial: %v-side snapshot cannot reconstruct a full estimator; use MergeLeftFrom/MergeRightFrom", h.side)
	}
	e, err := newEstimatorFromHeader(h)
	if err != nil {
		return nil, err
	}
	return e, e.mergeBlobs(blobs)
}

// newEstimatorFromHeader rebuilds an empty estimator from snapshot
// configuration and cross-checks that the rebuilt estimator derives the
// exact header it was built from (catching tampered or inconsistent
// sizing fields at decode time).
func newEstimatorFromHeader(h snapHeader) (*JoinEstimator, error) {
	e, err := NewJoinEstimator(JoinConfig{
		Dims:       int(h.dims),
		DomainSize: h.domainSize,
		Sizing:     Sizing{Instances: int(h.instances), Groups: int(h.groups)},
		MaxLevel:   configuredMaxLevel(h.maxLevel),
		Mode:       Mode(h.mode),
		Seed:       h.seed,
	})
	if err != nil {
		return nil, err
	}
	got := e.header()
	got.side = h.side
	if err := got.compatible(h); err != nil {
		return nil, fmt.Errorf("spatial: inconsistent snapshot configuration: %w", err)
	}
	return e, nil
}

// mergeBlobs folds a snapshot's two core sketches into shard 0.
func (e *JoinEstimator) mergeBlobs(blobs [][]byte) error {
	if e.cfg.Mode == ModeCommonEndpoints {
		l, err := core.UnmarshalCESketch(blobs[0])
		if err != nil {
			return err
		}
		r, err := core.UnmarshalCESketch(blobs[1])
		if err != nil {
			return err
		}
		return e.st.ingestFirst(func(s *joinState) error {
			if err := s.leftCE.Merge(l); err != nil {
				return err
			}
			return s.rightCE.Merge(r)
		})
	}
	l, err := core.UnmarshalJoinSketch(blobs[0])
	if err != nil {
		return err
	}
	r, err := core.UnmarshalJoinSketch(blobs[1])
	if err != nil {
		return err
	}
	return e.st.ingestFirst(func(s *joinState) error {
		if err := s.left.Merge(l); err != nil {
			return err
		}
		return s.right.Merge(r)
	})
}

// MergeSnapshot folds a Marshal snapshot produced by another estimator
// into this one. Any public-config mismatch - kind, dims, DomainSize,
// Mode, level cap, Seed, sizing - is rejected at decode time.
func (e *JoinEstimator) MergeSnapshot(data []byte) error {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return err
	}
	if err := h.expectBlobs(blobs, KindJoin, 2); err != nil {
		return err
	}
	if h.side != sideBoth {
		return fmt.Errorf("spatial: MergeSnapshot needs a full snapshot, got a %v-side one", h.side)
	}
	if err := e.header().compatible(h); err != nil {
		return err
	}
	return e.mergeBlobs(blobs)
}

// MarshalLeft serializes one side's synopsis (full public configuration
// included), so sketches can be built near the data and shipped for
// estimation. Only supported in ModeTransform.
func (e *JoinEstimator) MarshalLeft() ([]byte, error) { return e.marshalSide(sideLeft) }

// MarshalRight serializes the right synopsis.
func (e *JoinEstimator) MarshalRight() ([]byte, error) { return e.marshalSide(sideRight) }

func (e *JoinEstimator) marshalSide(side snapSide) ([]byte, error) {
	if e.cfg.Mode != ModeTransform {
		return nil, fmt.Errorf("spatial: single-side serialization is supported in ModeTransform only; Marshal snapshots whole estimators in either mode")
	}
	var blob []byte
	err := e.withView(func(v viewRef[*joinState]) error {
		var err error
		if side == sideLeft {
			blob, err = v.state.left.MarshalBinary()
		} else {
			blob, err = v.state.right.MarshalBinary()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	h := e.header()
	h.side = side
	return marshalEnvelope(h, [][]byte{blob}), nil
}

// MergeLeftFrom merges a serialized left synopsis (produced by MarshalLeft
// on another estimator) into this one - the distributed-construction
// pattern. The full public configuration must match; a mismatch (including
// DomainSize differences the internal plan cannot see) fails here instead
// of corrupting counters.
func (e *JoinEstimator) MergeLeftFrom(data []byte) error { return e.mergeSideFrom(data, sideLeft) }

// MergeRightFrom merges a serialized right synopsis into this one.
func (e *JoinEstimator) MergeRightFrom(data []byte) error { return e.mergeSideFrom(data, sideRight) }

func (e *JoinEstimator) mergeSideFrom(data []byte, side snapSide) error {
	if e.cfg.Mode != ModeTransform {
		return fmt.Errorf("spatial: single-side serialization is supported in ModeTransform only")
	}
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return err
	}
	if err := h.expectBlobs(blobs, KindJoin, 1); err != nil {
		return err
	}
	if h.side != side {
		return fmt.Errorf("spatial: snapshot holds the %v side, want %v", h.side, side)
	}
	want := e.header()
	want.side = side
	if err := want.compatible(h); err != nil {
		return err
	}
	other, err := core.UnmarshalJoinSketch(blobs[0])
	if err != nil {
		return err
	}
	return e.st.ingestFirst(func(s *joinState) error {
		if side == sideLeft {
			return s.left.Merge(other)
		}
		return s.right.Merge(other)
	})
}

func log2ceil(x uint64) int {
	if x <= 1 {
		return 0
	}
	return bits.Len64(x - 1)
}

func pow(base, exp int) int {
	n := 1
	for i := 0; i < exp; i++ {
		n *= base
	}
	return n
}

// configuredMaxLevel maps a snapshot's resolved level cap back to the
// MaxLevel configuration field that resolves to it.
func configuredMaxLevel(resolved int32) int {
	if resolved == 0 {
		return MaxLevelUncapped
	}
	return int(resolved)
}
