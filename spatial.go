// Package spatial is a Go implementation of the sketch-based selectivity
// estimation framework of Das, Gehrke and Riedewald, "Approximation
// Techniques for Spatial Data" (SIGMOD 2004): small, mergeable,
// incrementally maintainable synopses of spatial datasets that answer
// cardinality/selectivity queries - spatial joins, epsilon-joins,
// containment joins and range queries - with provable probabilistic error
// guarantees.
//
// The synopses are AMS-style sketches over dyadic decompositions of the
// coordinate space. They are built in a single pass, support inserts AND
// deletes, and their accuracy improves predictably with the space invested
// (unlike grid histograms, whose error is data-dependent and not
// guaranteed).
//
// # Quick start
//
//	est, err := spatial.NewJoinEstimator(spatial.JoinConfig{
//	    Dims:       2,
//	    DomainSize: 1 << 16,
//	    Sizing:     spatial.Sizing{MemoryWords: 4096},
//	    Seed:       42,
//	})
//	// stream the two relations
//	est.InsertLeft(geo.Rect(10, 50, 20, 80))
//	est.InsertRight(geo.Rect(40, 90, 10, 60))
//	...
//	card := est.Cardinality()          // estimated |R join S|
//	sel := est.Selectivity()           // card / (|R|*|S|)
//
// Geometry lives in the repro/geo sub-package. All coordinates are
// unsigned integers in [0, DomainSize); real-valued data is mapped onto
// the grid with geo.Quantizer (paper Section 5.1).
//
// # Common endpoints
//
// The paper's estimators assume the joined relations share no endpoint
// coordinates (Assumption 1). By default the estimators make the
// assumption hold via the endpoint transformation of Section 5.2
// (coordinates are tripled internally; the right/query side is shrunk).
// ModeCommonEndpoints instead maintains the explicit endpoint sketches of
// Appendix C - no domain growth, and the extended join of Definition 4
// (boundary contact counts as intersection) also becomes available.
//
// # Concurrency and serving
//
// All estimators are safe for concurrent use: updates go to sharded
// sketches behind per-shard locks, estimates fold the shards into an
// owned view (see shard.go). Marshal emits a versioned full-estimator
// snapshot (configuration included) that Unmarshal<Kind>Estimator turns
// back into a working estimator and MergeSnapshot folds into an existing
// one, rejecting config mismatches at decode time; cmd/spatialserve
// serves a registry of named estimators over HTTP.
package spatial

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
)

// Estimate is a boosted estimate with diagnostics: the median of group
// means (the paper's Section 2.3 boosting), plus the grand mean and the
// empirical variance of the underlying atomic estimators.
type Estimate struct {
	// Value is the boosted estimate (median of group means); it can be
	// negative for tiny results, see Clamped.
	Value float64
	// Mean is the grand mean over all atomic instances.
	Mean float64
	// GroupMeans are the per-group means whose median is Value. Treat the
	// slice as read-only: the zero-copy read path memoizes estimates per
	// immutable view, so repeated queries against an unchanged estimator
	// may return Estimates sharing one GroupMeans slice.
	GroupMeans []float64
	// SampleVariance is the empirical variance of the atomic instances.
	SampleVariance float64
	// Instances is the number of atomic instances combined.
	Instances int
}

// Clamped returns the estimate clamped to be non-negative.
func (e Estimate) Clamped() float64 {
	if e.Value < 0 {
		return 0
	}
	return e.Value
}

// StdErr returns the estimated standard error of one group mean - a
// practical uncertainty gauge: when it rivals the estimate itself, the
// synopsis is too small for the workload (self-join sizes large relative
// to the result, Section 7.4) and more space is needed.
func (e Estimate) StdErr() float64 {
	if len(e.GroupMeans) == 0 || e.Instances == 0 {
		return math.NaN()
	}
	perGroup := float64(e.Instances) / float64(len(e.GroupMeans))
	return math.Sqrt(e.SampleVariance / perGroup)
}

func fromCore(e core.Estimate) Estimate {
	return Estimate{
		Value:          e.Value,
		Mean:           e.Mean,
		GroupMeans:     e.GroupMeans,
		SampleVariance: e.SampleVariance,
		Instances:      e.Instances,
	}
}

// Guarantee is an (eps, phi) accuracy target: with probability at least
// 1-Phi the estimate is within relative error Eps of the true cardinality,
// provided the self-join sizes and result lower bound supplied in Sizing
// hold for the data (Lemma 1 / Theorems 1-3).
type Guarantee struct {
	Eps float64 // relative error bound
	Phi float64 // failure probability
}

// Sizing selects how many atomic sketch instances to maintain. Exactly one
// of the three modes applies, checked in this order:
//
//  1. Instances > 0: explicit (Groups defaults to 8 if zero).
//  2. MemoryWords > 0: as many instances as fit the per-relation budget,
//     using the paper's word accounting (Section 7 equal-space setup) with
//     the footprint of the estimator being sized: 2^d + d/2 words per
//     instance for transform-mode joins, 4^d + d/2 for common-endpoints
//     joins, 1 + d/2 for epsilon- and containment joins (in the doubled
//     reduction dimensionality), 2^d + d for range synopses.
//  3. Guarantee != nil: the (eps, phi) sizing of the estimator's own
//     bound, from the self-join size bounds and the result lower bound
//     ("sanity bound", Section 2.3): Theorem 3 for joins (either mode);
//     Lemma 8 for epsilon-joins at d and for containment joins at the
//     reduction's 2d, with SelfJoinLeft and SelfJoinRight bounding the
//     point and box sides; Lemma 9 for range synopses, with SelfJoinLeft
//     as SJ(R) (1-d only: range estimators with Dims > 1 refuse a
//     Guarantee).
//
// If none is set, a default of 512 instances in 8 groups is used.
type Sizing struct {
	Instances int
	Groups    int

	MemoryWords int

	Guarantee        *Guarantee
	SelfJoinLeft     float64 // bound on SJ(R); see exact self-join helpers
	SelfJoinRight    float64 // bound on SJ(S)
	ResultLowerBound float64 // lower bound on the true cardinality
}

const (
	defaultInstances = 512
	defaultGroups    = 8
)

// resolve turns a Sizing into concrete (instances, groups) for an
// estimator of kind k whose configuration resolved to sh: MemoryWords
// sizing uses the kind's word accounting (sh.words), Guarantee sizing
// the kind's planner.
func (s Sizing) resolve(k *kindSpec, sh shape) (instances, groups int, err error) {
	switch {
	case s.Instances > 0:
		groups = s.Groups
		if groups <= 0 {
			groups = defaultGroups
		}
		if s.Instances < groups {
			return 0, 0, fmt.Errorf("spatial: %d instances cannot form %d groups", s.Instances, groups)
		}
		instances = s.Instances - s.Instances%groups
		return instances, groups, nil
	case s.MemoryWords > 0:
		groups = s.Groups
		if groups <= 0 {
			groups = defaultGroups
		}
		instances = core.InstancesForBudgetWords(sh.words, s.MemoryWords, groups)
		return instances, groups, nil
	case s.Guarantee != nil:
		k1, k2, err := k.guarantee(sh, core.Guarantee(*s.Guarantee), s)
		if err != nil {
			return 0, 0, err
		}
		return k1 * k2, k2, nil
	default:
		return defaultInstances, defaultGroups, nil
	}
}

// Mode selects how the estimators satisfy the paper's Assumption 1 (no
// shared endpoint coordinates between the joined inputs).
type Mode uint8

const (
	// ModeTransform (default) applies the Section 5.2 endpoint
	// transformation internally: the coordinate domain is tripled and the
	// right-hand (or query) side is shrunk by one augmented step. Exact
	// for the strict overlap join of Definition 1 on arbitrary inputs.
	ModeTransform Mode = iota
	// ModeCommonEndpoints maintains the explicit {I,E,L,U} endpoint
	// sketches of Appendix C instead: no domain growth, arbitrary inputs,
	// and the extended join of Definition 4 is also available.
	ModeCommonEndpoints
)

// String returns the mode's wire name ("transform" or
// "common-endpoints").
func (m Mode) String() string {
	switch m {
	case ModeTransform:
		return "transform"
	case ModeCommonEndpoints:
		return "common-endpoints"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// MaxLevelUncapped disables the Section 6.5 level cap when set as a
// MaxLevel (full dyadic covers on every level). Uncapped sketches have
// substantially higher variance on large domains - the top dyadic levels
// are shared by every object - so the default is an adaptive cap.
const MaxLevelUncapped = -1

// resolveMaxLevel turns the configured MaxLevel into the per-plan cap:
// positive values are explicit, MaxLevelUncapped disables the cap, and 0
// (the default) picks the Section 6.5 adaptive cap from the paper's
// object-length rule of thumb (len ~ sqrt(domain)): the variance-optimal
// cap is 2^ml ~ 3*len/sqrt(8), i.e. about half the domain's log plus a
// small constant. Callers who know their length distribution should set an
// explicit cap near log2(meanLen) + 0.1.
func resolveMaxLevel(configured int, domainSize uint64) int {
	switch {
	case configured > 0:
		return configured
	case configured < 0:
		return 0 // uncapped in core's convention (MaxLevel nil)
	default:
		h := log2ceil(domainSize)
		ml := h/2 + 2
		if ml < 1 {
			ml = 1
		}
		return ml
	}
}

// configuredMaxLevel maps a snapshot's resolved level cap back to the
// MaxLevel configuration field that resolves to it.
func configuredMaxLevel(resolved int32) int {
	if resolved == 0 {
		return MaxLevelUncapped
	}
	return int(resolved)
}

func log2ceil(x uint64) int {
	if x <= 1 {
		return 0
	}
	return bits.Len64(x - 1)
}
