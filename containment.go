package spatial

import "repro/geo"

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
type ContainmentEstimator struct{ pairEstimator }

// NewContainmentEstimator validates the configuration and allocates the
// synopsis.
func NewContainmentEstimator(cfg ContainmentConfig) (*ContainmentEstimator, error) {
	e := new(ContainmentEstimator)
	return built(e, e.init(&containmentKind, params{dims: cfg.Dims, domainSize: cfg.DomainSize,
		sizing: cfg.Sizing, maxLevel: cfg.MaxLevel, seed: cfg.Seed}))
}

// UnmarshalContainmentEstimator reconstructs a working estimator from a
// Marshal snapshot: configuration, counters and counts all round-trip.
func UnmarshalContainmentEstimator(data []byte) (*ContainmentEstimator, error) {
	e := new(ContainmentEstimator)
	return built(e, e.unmarshal(data, KindContainment))
}

// Config returns the estimator's configuration.
func (e *ContainmentEstimator) Config() ContainmentConfig {
	return ContainmentConfig{Dims: e.p.dims, DomainSize: e.p.domainSize, Sizing: e.p.sizing,
		MaxLevel: e.p.maxLevel, Seed: e.p.seed}
}

// InsertInner adds an object to the contained ("inner") side.
func (e *ContainmentEstimator) InsertInner(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Side: SideInner, Rect: r})
}

// DeleteInner removes a previously inserted inner object.
func (e *ContainmentEstimator) DeleteInner(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Op: OpDelete, Side: SideInner, Rect: r})
}

// InsertOuter adds an object to the containing ("outer") side.
func (e *ContainmentEstimator) InsertOuter(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Side: SideOuter, Rect: r})
}

// DeleteOuter removes a previously inserted outer object.
func (e *ContainmentEstimator) DeleteOuter(r geo.HyperRect) error {
	return e.Apply(UpdateRecord{Op: OpDelete, Side: SideOuter, Rect: r})
}

// InsertInnerBulk bulk-loads inner objects (parallelized internally).
func (e *ContainmentEstimator) InsertInnerBulk(rects []geo.HyperRect) error {
	return e.insertRects(SideInner, rects)
}

// InsertOuterBulk bulk-loads outer objects.
func (e *ContainmentEstimator) InsertOuterBulk(rects []geo.HyperRect) error {
	return e.insertRects(SideOuter, rects)
}

// InnerCount returns the inner-side cardinality.
func (e *ContainmentEstimator) InnerCount() int64 { return e.count(0) }

// OuterCount returns the outer-side cardinality.
func (e *ContainmentEstimator) OuterCount() int64 { return e.count(1) }

// Merge folds the synopses of other into e (exact, by sketch linearity).
// The full public configurations must match. other is not modified; Merge
// is safe under concurrency.
func (e *ContainmentEstimator) Merge(other *ContainmentEstimator) error {
	return e.merge(&other.estimator)
}
