package spatial

import "repro/geo"

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

// EpsJoinEstimator estimates |A join_eps B| for two streamed point sets
// under the L-infinity metric, via the paper's reduction: points of B are
// expanded into hyper-cubes of side 2*Eps (clipped to the domain) and the
// two-sketch point-in-box estimator of Lemma 8 is applied. No endpoint
// transformation is involved: closed containment is exactly
// dist <= Eps.
//
// An EpsJoinEstimator is safe for concurrent use (see shard.go).
type EpsJoinEstimator struct{ pairEstimator }

// epsResolveCap resolves the effective level cap of an epsilon-join
// configuration: explicit when positive, derived from the ball side
// (2*Eps+1) when 0, uncapped when negative.
func epsResolveCap(maxLevel int, eps uint64) int {
	switch {
	case maxLevel > 0:
		return maxLevel
	case maxLevel < 0:
		return 0
	default:
		// The variance-optimal cap tracks the ball side length (2*Eps+1),
		// not the domain: point covers above it only add colliding
		// top-level nodes.
		return max(1, log2ceil(2*eps+1)-2)
	}
}

// NewEpsJoinEstimator validates the configuration and allocates the
// synopsis.
func NewEpsJoinEstimator(cfg EpsJoinConfig) (*EpsJoinEstimator, error) {
	e := new(EpsJoinEstimator)
	return built(e, e.init(&epsJoinKind, params{dims: cfg.Dims, domainSize: cfg.DomainSize,
		sizing: cfg.Sizing, maxLevel: cfg.MaxLevel, eps: cfg.Eps, seed: cfg.Seed}))
}

// UnmarshalEpsJoinEstimator reconstructs a working estimator from a
// Marshal snapshot: configuration, counters and counts all round-trip.
func UnmarshalEpsJoinEstimator(data []byte) (*EpsJoinEstimator, error) {
	e := new(EpsJoinEstimator)
	return built(e, e.unmarshal(data, KindEpsJoin))
}

// Config returns the estimator's configuration.
func (e *EpsJoinEstimator) Config() EpsJoinConfig {
	return EpsJoinConfig{Dims: e.p.dims, DomainSize: e.p.domainSize, Eps: e.p.eps,
		Sizing: e.p.sizing, MaxLevel: e.p.maxLevel, Seed: e.p.seed}
}

// InsertLeft adds a point to the left set A.
func (e *EpsJoinEstimator) InsertLeft(p geo.Point) error {
	return e.Apply(UpdateRecord{Side: SideLeft, Point: p})
}

// DeleteLeft removes a previously inserted left point.
func (e *EpsJoinEstimator) DeleteLeft(p geo.Point) error {
	return e.Apply(UpdateRecord{Op: OpDelete, Side: SideLeft, Point: p})
}

// InsertRight adds a point to the right set B (expanded to its eps-ball).
func (e *EpsJoinEstimator) InsertRight(p geo.Point) error {
	return e.Apply(UpdateRecord{Side: SideRight, Point: p})
}

// DeleteRight removes a previously inserted right point.
func (e *EpsJoinEstimator) DeleteRight(p geo.Point) error {
	return e.Apply(UpdateRecord{Op: OpDelete, Side: SideRight, Point: p})
}

// InsertLeftBulk bulk-loads left points (parallelized internally).
func (e *EpsJoinEstimator) InsertLeftBulk(pts []geo.Point) error {
	return e.insertPoints(SideLeft, pts)
}

// InsertRightBulk bulk-loads right points, expanding each to its eps-ball.
func (e *EpsJoinEstimator) InsertRightBulk(pts []geo.Point) error {
	return e.insertPoints(SideRight, pts)
}

// LeftCount returns |A|.
func (e *EpsJoinEstimator) LeftCount() int64 { return e.count(0) }

// RightCount returns |B|.
func (e *EpsJoinEstimator) RightCount() int64 { return e.count(1) }

// Merge folds the synopses of other into e (exact, by sketch linearity).
// The full public configurations must match - Eps in particular shapes the
// right-side balls without being visible to the core plan, so the
// sketch-level merge alone could not catch a mismatch. other is not
// modified; Merge is safe under concurrency.
func (e *EpsJoinEstimator) Merge(other *EpsJoinEstimator) error { return e.merge(&other.estimator) }
