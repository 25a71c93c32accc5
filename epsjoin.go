package spatial

import (
	"fmt"

	"repro/geo"
	"repro/internal/core"
)

// EpsJoinConfig configures an epsilon-join estimator (Definition 2,
// Section 6.3, L-infinity metric).
type EpsJoinConfig struct {
	// Dims is the point dimensionality.
	Dims int
	// DomainSize is the per-dimension coordinate domain.
	DomainSize uint64
	// Eps is the distance threshold: pairs (a, b) with
	// dist_inf(a, b) <= Eps are counted.
	Eps uint64
	// Sizing picks the number of atomic instances.
	Sizing Sizing
	// MaxLevel caps the dyadic level (Section 6.5). Positive values are
	// explicit; 0 derives the cap from Eps (the balls have side 2*Eps+1);
	// MaxLevelUncapped disables the cap.
	MaxLevel int
	// Seed makes the synopsis deterministic.
	Seed uint64
}

// pointBoxState is one ingest shard of an epsilon-join or containment
// estimator: a point sketch and a box sketch over the same plan.
type pointBoxState struct {
	pts   *core.PointSketch
	boxes *core.BoxSketch
}

func mergePointBoxState(dst, src *pointBoxState) error {
	if err := dst.pts.Merge(src.pts); err != nil {
		return err
	}
	return dst.boxes.Merge(src.boxes)
}

// pointBoxCardinality reads (estimate, point count, box count) from one
// epoch view of a point/box shard set, memoized per view. Cardinality,
// CardinalityWithCounts and Selectivity of both the epsilon-join and the
// containment estimator route through here.
func pointBoxCardinality(st *shardedState[*pointBoxState], mk func() *pointBoxState) (est Estimate, pts, boxes int64, err error) {
	err = st.view(mk, mergePointBoxState, func(v viewRef[*pointBoxState]) error {
		var err error
		est, pts, boxes, err = v.memoized(memoCardinality, nil, func() (Estimate, int64, int64, error) {
			ce, err := core.EstimatePointInBox(v.state.pts, v.state.boxes)
			if err != nil {
				return Estimate{}, 0, 0, err
			}
			return fromCore(ce), v.state.pts.Count(), v.state.boxes.Count(), nil
		})
		return err
	})
	return est, pts, boxes, err
}

// EpsJoinEstimator estimates |A join_eps B| for two streamed point sets
// under the L-infinity metric, via the paper's reduction: points of B are
// expanded into hyper-cubes of side 2*Eps (clipped to the domain) and the
// two-sketch point-in-box estimator of Lemma 8 is applied. No endpoint
// transformation is involved: closed containment is exactly
// dist <= Eps.
//
// An EpsJoinEstimator is safe for concurrent use (see shard.go).
type EpsJoinEstimator struct {
	cfg  EpsJoinConfig
	plan *core.Plan
	st   *shardedState[*pointBoxState]
}

// epsResolveCap resolves the effective level cap of an epsilon-join
// configuration: explicit when positive, derived from the ball side
// (2*Eps+1) when 0, uncapped when negative.
func epsResolveCap(cfg EpsJoinConfig) int {
	switch {
	case cfg.MaxLevel > 0:
		return cfg.MaxLevel
	case cfg.MaxLevel < 0:
		return 0
	default:
		// The variance-optimal cap tracks the ball side length (2*Eps+1),
		// not the domain: point covers above it only add colliding
		// top-level nodes.
		return maxInt(1, log2ceil(2*cfg.Eps+1)-2)
	}
}

// NewEpsJoinEstimator validates the configuration and allocates the
// synopsis.
func NewEpsJoinEstimator(cfg EpsJoinConfig) (*EpsJoinEstimator, error) {
	if cfg.Dims < 1 || cfg.Dims > core.MaxDims {
		return nil, fmt.Errorf("spatial: dims %d outside [1, %d]", cfg.Dims, core.MaxDims)
	}
	if cfg.DomainSize < 2 {
		return nil, fmt.Errorf("spatial: domain size must be >= 2, got %d", cfg.DomainSize)
	}
	if cfg.Eps >= cfg.DomainSize {
		return nil, fmt.Errorf("spatial: eps %d must be smaller than the domain %d", cfg.Eps, cfg.DomainSize)
	}
	instances, groups, err := cfg.Sizing.resolve(cfg.Dims, core.PointBoxWordsPerRelation(cfg.Dims))
	if err != nil {
		return nil, err
	}
	h := log2ceil(cfg.DomainSize)
	logDom := make([]int, cfg.Dims)
	for i := range logDom {
		logDom[i] = maxInt(h, 1)
	}
	var maxLevel []int
	if ml := epsResolveCap(cfg); ml > 0 {
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
	e := &EpsJoinEstimator{cfg: cfg, plan: plan}
	e.st = newShardedState(ingestShards(), e.newState)
	return e, nil
}

func (e *EpsJoinEstimator) newState() *pointBoxState {
	return &pointBoxState{pts: e.plan.NewPointSketch(), boxes: e.plan.NewBoxSketch()}
}

// Config returns the estimator's configuration.
func (e *EpsJoinEstimator) Config() EpsJoinConfig { return e.cfg }

// Instances returns the number of atomic estimator instances maintained.
func (e *EpsJoinEstimator) Instances() int { return e.plan.Instances() }

// Groups returns the number of median groups (k2).
func (e *EpsJoinEstimator) Groups() int { return e.plan.Groups() }

// SpaceWords returns the synopsis footprint in the paper's word accounting
// (one counter per side plus d shared seed words per instance).
func (e *EpsJoinEstimator) SpaceWords() int {
	return e.plan.Instances() * (2 + e.cfg.Dims)
}

func (e *EpsJoinEstimator) check(p geo.Point) error {
	if len(p) != e.cfg.Dims {
		return fmt.Errorf("spatial: point dimensionality %d, want %d", len(p), e.cfg.Dims)
	}
	for i, x := range p {
		if x >= e.cfg.DomainSize {
			return fmt.Errorf("spatial: coordinate %d outside domain %d in dim %d", x, e.cfg.DomainSize, i)
		}
	}
	return nil
}

// InsertLeft adds a point to the left set A.
func (e *EpsJoinEstimator) InsertLeft(p geo.Point) error { return e.updateLeft(p, true) }

// DeleteLeft removes a previously inserted left point.
func (e *EpsJoinEstimator) DeleteLeft(p geo.Point) error { return e.updateLeft(p, false) }

func (e *EpsJoinEstimator) updateLeft(p geo.Point, insert bool) error {
	if err := e.check(p); err != nil {
		return err
	}
	return e.st.ingest(func(s *pointBoxState) error {
		if insert {
			return s.pts.Insert(p)
		}
		return s.pts.Delete(p)
	})
}

// InsertRight adds a point to the right set B (expanded to its eps-ball).
func (e *EpsJoinEstimator) InsertRight(p geo.Point) error { return e.updateRight(p, true) }

// DeleteRight removes a previously inserted right point.
func (e *EpsJoinEstimator) DeleteRight(p geo.Point) error { return e.updateRight(p, false) }

func (e *EpsJoinEstimator) updateRight(p geo.Point, insert bool) error {
	if err := e.check(p); err != nil {
		return err
	}
	ball := geo.Ball(p, e.cfg.Eps, e.cfg.DomainSize)
	return e.st.ingest(func(s *pointBoxState) error {
		if insert {
			return s.boxes.Insert(ball)
		}
		return s.boxes.Delete(ball)
	})
}

// InsertLeftBulk bulk-loads left points (parallelized internally).
func (e *EpsJoinEstimator) InsertLeftBulk(pts []geo.Point) error {
	for _, p := range pts {
		if err := e.check(p); err != nil {
			return err
		}
	}
	return e.st.ingest(func(s *pointBoxState) error { return s.pts.InsertAll(pts) })
}

// InsertRightBulk bulk-loads right points, expanding each to its eps-ball.
func (e *EpsJoinEstimator) InsertRightBulk(pts []geo.Point) error {
	for _, p := range pts {
		if err := e.check(p); err != nil {
			return err
		}
	}
	balls := make([]geo.HyperRect, len(pts))
	for i, p := range pts {
		balls[i] = geo.Ball(p, e.cfg.Eps, e.cfg.DomainSize)
	}
	return e.st.ingest(func(s *pointBoxState) error { return s.boxes.InsertAll(balls) })
}

// Apply replays one update record through the estimator's public update
// path (see JoinEstimator.Apply).
func (e *EpsJoinEstimator) Apply(rec UpdateRecord) error {
	if rec.Point == nil {
		return fmt.Errorf("spatial: epsilon-join estimators take points, record carries a rect")
	}
	switch {
	case rec.Side == SideLeft && rec.Op == OpInsert:
		return e.InsertLeft(rec.Point)
	case rec.Side == SideLeft && rec.Op == OpDelete:
		return e.DeleteLeft(rec.Point)
	case rec.Side == SideRight && rec.Op == OpInsert:
		return e.InsertRight(rec.Point)
	case rec.Side == SideRight && rec.Op == OpDelete:
		return e.DeleteRight(rec.Point)
	}
	return fmt.Errorf("spatial: epsilon-join estimators have no %v side", rec.Side)
}

// ValidateRecord checks rec against this estimator's input contract -
// exactly the validation Apply performs - without applying it (see
// JoinEstimator.ValidateRecord).
func (e *EpsJoinEstimator) ValidateRecord(rec UpdateRecord) error {
	if rec.Point == nil {
		return fmt.Errorf("spatial: epsilon-join estimators take points, record carries a rect")
	}
	if rec.Side != SideLeft && rec.Side != SideRight {
		return fmt.Errorf("spatial: epsilon-join estimators have no %v side", rec.Side)
	}
	return e.check(rec.Point)
}

// header returns the full public configuration of this estimator.
func (e *EpsJoinEstimator) header() snapHeader {
	return snapHeader{
		kind:       KindEpsJoin,
		dims:       uint32(e.cfg.Dims),
		domainSize: e.cfg.DomainSize,
		maxLevel:   int32(epsResolveCap(e.cfg)),
		eps:        e.cfg.Eps,
		seed:       e.cfg.Seed,
		instances:  uint64(e.plan.Instances()),
		groups:     uint64(e.plan.Groups()),
	}
}

// Merge folds the synopses of other into e (exact, by sketch linearity).
// The full public configurations must match - Eps in particular shapes the
// right-side balls without being visible to the core plan, so the
// sketch-level merge alone could not catch a mismatch. other is not
// modified; Merge is safe under concurrency.
func (e *EpsJoinEstimator) Merge(other *EpsJoinEstimator) error {
	if err := e.header().compatible(other.header()); err != nil {
		return err
	}
	snap, err := other.st.snapshot(other.newState, mergePointBoxState)
	if err != nil {
		return err
	}
	return e.st.ingestFirst(func(s *pointBoxState) error { return mergePointBoxState(s, snap) })
}

// LeftCount returns |A|.
func (e *EpsJoinEstimator) LeftCount() int64 {
	var n int64
	e.st.fold(func(s *pointBoxState) error {
		n += s.pts.Count()
		return nil
	})
	return n
}

// RightCount returns |B|.
func (e *EpsJoinEstimator) RightCount() int64 {
	var n int64
	e.st.fold(func(s *pointBoxState) error {
		n += s.boxes.Count()
		return nil
	})
	return n
}

// Cardinality estimates |A join_eps B|.
func (e *EpsJoinEstimator) Cardinality() (Estimate, error) {
	est, _, _, err := pointBoxCardinality(e.st, e.newState)
	return est, err
}

// CardinalityWithCounts returns Cardinality together with |A| and |B|,
// all read from the same consistent view.
func (e *EpsJoinEstimator) CardinalityWithCounts() (est Estimate, left, right int64, err error) {
	return pointBoxCardinality(e.st, e.newState)
}

// Selectivity estimates |A join_eps B| / (|A| * |B|).
func (e *EpsJoinEstimator) Selectivity() (float64, error) {
	est, nl, nr, err := pointBoxCardinality(e.st, e.newState)
	if err != nil {
		return 0, err
	}
	if nl <= 0 || nr <= 0 {
		return 0, fmt.Errorf("spatial: selectivity undefined for empty inputs (%d, %d)", nl, nr)
	}
	return est.Clamped() / (float64(nl) * float64(nr)), nil
}

// Version returns the estimator's write version: a counter that grows by
// one with every write that reaches the sketches - insert, delete, bulk
// insert or merge - and never falls. A Marshal bracketed by two Version
// reads that agree returns the bytes of exactly that version, so
// (estimator, Version) can validate a snapshot without marshaling it.
// Safe for concurrent use.
func (e *EpsJoinEstimator) Version() uint64 { return e.st.version() }

// Marshal serializes the whole estimator - both synopses plus the full
// public configuration, Eps included - into a versioned snapshot envelope;
// see UnmarshalEpsJoinEstimator.
func (e *EpsJoinEstimator) Marshal() ([]byte, error) {
	blobs, err := marshalPointBox(e.st, e.newState)
	if err != nil {
		return nil, err
	}
	return marshalEnvelope(e.header(), blobs), nil
}

// marshalPointBox snapshots a point/box shard set into its two core blobs.
func marshalPointBox(st *shardedState[*pointBoxState], mk func() *pointBoxState) ([][]byte, error) {
	var blobs [][]byte
	err := st.view(mk, mergePointBoxState, func(v viewRef[*pointBoxState]) error {
		pb, err := v.state.pts.MarshalBinary()
		if err != nil {
			return err
		}
		bb, err := v.state.boxes.MarshalBinary()
		if err != nil {
			return err
		}
		blobs = [][]byte{pb, bb}
		return nil
	})
	return blobs, err
}

// mergePointBoxBlobs folds decoded point/box blobs into shard 0.
func mergePointBoxBlobs(st *shardedState[*pointBoxState], blobs [][]byte) error {
	pts, err := core.UnmarshalPointSketch(blobs[0])
	if err != nil {
		return err
	}
	boxes, err := core.UnmarshalBoxSketch(blobs[1])
	if err != nil {
		return err
	}
	return st.ingestFirst(func(s *pointBoxState) error {
		if err := s.pts.Merge(pts); err != nil {
			return err
		}
		return s.boxes.Merge(boxes)
	})
}

// UnmarshalEpsJoinEstimator reconstructs a working estimator from a
// Marshal snapshot: configuration, counters and counts all round-trip.
func UnmarshalEpsJoinEstimator(data []byte) (*EpsJoinEstimator, error) {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return nil, err
	}
	if err := h.expectBlobs(blobs, KindEpsJoin, 2); err != nil {
		return nil, err
	}
	e, err := NewEpsJoinEstimator(EpsJoinConfig{
		Dims:       int(h.dims),
		DomainSize: h.domainSize,
		Eps:        h.eps,
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
// into this one, rejecting any public-config mismatch (Eps included) at
// decode time.
func (e *EpsJoinEstimator) MergeSnapshot(data []byte) error {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return err
	}
	if err := h.expectBlobs(blobs, KindEpsJoin, 2); err != nil {
		return err
	}
	if err := e.header().compatible(h); err != nil {
		return err
	}
	return mergePointBoxBlobs(e.st, blobs)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
