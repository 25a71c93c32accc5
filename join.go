package spatial

import (
	"fmt"

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
type JoinEstimator struct{ pairEstimator }

// NewJoinEstimator validates the configuration and allocates the synopsis.
func NewJoinEstimator(cfg JoinConfig) (*JoinEstimator, error) {
	e := new(JoinEstimator)
	return built(e, e.init(kindOf(KindJoin, cfg.Mode), params{dims: cfg.Dims, domainSize: cfg.DomainSize,
		sizing: cfg.Sizing, maxLevel: cfg.MaxLevel, mode: cfg.Mode, seed: cfg.Seed}))
}

// UnmarshalJoinEstimator reconstructs a working estimator from a Marshal
// snapshot: configuration, counters and counts all round-trip.
func UnmarshalJoinEstimator(data []byte) (*JoinEstimator, error) {
	e := new(JoinEstimator)
	return built(e, e.unmarshal(data, KindJoin))
}

// Config returns the estimator's configuration.
func (e *JoinEstimator) Config() JoinConfig {
	return JoinConfig{Dims: e.p.dims, DomainSize: e.p.domainSize, Sizing: e.p.sizing,
		MaxLevel: e.p.maxLevel, Mode: e.p.mode, Seed: e.p.seed}
}

// InsertLeft adds an object to the left input (R).
func (e *JoinEstimator) InsertLeft(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Side: SideLeft, Rect: r})
}

// DeleteLeft removes a previously inserted left object.
func (e *JoinEstimator) DeleteLeft(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Op: OpDelete, Side: SideLeft, Rect: r})
}

// InsertRight adds an object to the right input (S).
func (e *JoinEstimator) InsertRight(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Side: SideRight, Rect: r})
}

// DeleteRight removes a previously inserted right object.
func (e *JoinEstimator) DeleteRight(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Op: OpDelete, Side: SideRight, Rect: r})
}

// InsertLeftBulk bulk-loads the left input (parallelized internally).
func (e *JoinEstimator) InsertLeftBulk(rects []geo.HyperRect) error {
	return e.insertRects(SideLeft, rects)
}

// InsertRightBulk bulk-loads the right input.
func (e *JoinEstimator) InsertRightBulk(rects []geo.HyperRect) error {
	return e.insertRects(SideRight, rects)
}

// LeftCount returns the current left input cardinality (inserts minus
// deletes).
func (e *JoinEstimator) LeftCount() int64 { return e.count(0) }

// RightCount returns the right input cardinality.
func (e *JoinEstimator) RightCount() int64 { return e.count(1) }

// CardinalityExtended estimates the extended join |R join+_o S| of
// Definition 4 (objects meeting at their boundaries count). Only available
// in ModeCommonEndpoints.
func (e *JoinEstimator) CardinalityExtended() (Estimate, error) {
	est, _, _, err := e.CardinalityExtendedWithCounts()
	return est, err
}

// CardinalityExtendedWithCounts is CardinalityWithCounts for the extended
// join of Definition 4 (ModeCommonEndpoints only).
func (e *JoinEstimator) CardinalityExtendedWithCounts() (est Estimate, left, right int64, err error) {
	if e.p.mode != ModeCommonEndpoints {
		return Estimate{}, 0, 0, fmt.Errorf("spatial: extended join requires ModeCommonEndpoints")
	}
	return e.memo(memoExtended, nil, func(s shard) (core.Estimate, error) {
		return core.EstimateJoinExtCE(s[0], s[1])
	})
}

// EstimateSelfJoinLeft estimates SJ(R) from the left synopsis itself
// (E[X_w^2] = SJ(X_w), the original AMS identity) - the input the
// Theorem 1 planner needs, with no offline pass. ModeTransform only.
func (e *JoinEstimator) EstimateSelfJoinLeft() (Estimate, error) { return e.selfJoin(0) }

// EstimateSelfJoinRight estimates SJ(S) from the right synopsis.
func (e *JoinEstimator) EstimateSelfJoinRight() (Estimate, error) { return e.selfJoin(1) }

// selfJoin estimates SJ of side i from its own synopsis, memoized per
// view.
func (e *JoinEstimator) selfJoin(i int) (Estimate, error) {
	if e.p.mode != ModeTransform {
		return Estimate{}, fmt.Errorf("spatial: self-join estimation is supported in ModeTransform only")
	}
	est, _, _, err := e.memo(memoSelfJoinLeft+i, nil, func(s shard) (core.Estimate, error) {
		return s[i].EstimateSelfJoin()
	})
	return est, err
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
func (e *JoinEstimator) Merge(other *JoinEstimator) error { return e.merge(&other.estimator) }

// MarshalLeft serializes one side's synopsis (full public configuration
// included), so sketches can be built near the data and shipped for
// estimation. Only supported in ModeTransform.
func (e *JoinEstimator) MarshalLeft() ([]byte, error) { return e.marshalSide(sideLeft) }

// MarshalRight serializes the right synopsis.
func (e *JoinEstimator) MarshalRight() ([]byte, error) { return e.marshalSide(sideRight) }

func (e *JoinEstimator) marshalSide(side snapSide) ([]byte, error) {
	if e.p.mode != ModeTransform {
		return nil, fmt.Errorf("spatial: single-side serialization is supported in ModeTransform only; Marshal snapshots whole estimators in either mode")
	}
	return e.marshal(side)
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
	if e.p.mode != ModeTransform {
		return fmt.Errorf("spatial: single-side serialization is supported in ModeTransform only")
	}
	return e.mergeSnapshot(data, side)
}
