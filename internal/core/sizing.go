package core

import (
	"fmt"
	"math"
)

// Sizing implements the Lemma 1 / Theorem 1-3 accuracy planning: choosing
// (k1, k2) so that the boosted estimate is within relative error eps of the
// true cardinality with probability 1-phi, and the word-count accounting
// used to compare against histograms under equal space (Section 7).

// Guarantee is an (eps, phi) accuracy target: with probability at least
// 1-Phi the boosted estimate is within relative error Eps of the true
// cardinality, provided the self-join sizes and the result lower bound fed
// to the planner hold.
type Guarantee struct {
	Eps float64 // relative error bound (0, inf)
	Phi float64 // failure probability (0, 1)
}

func (g Guarantee) validate() error {
	if !(g.Eps > 0) {
		return fmt.Errorf("core: eps must be positive, got %g", g.Eps)
	}
	if !(g.Phi > 0 && g.Phi < 1) {
		return fmt.Errorf("core: phi must be in (0,1), got %g", g.Phi)
	}
	return nil
}

// JoinVarianceFactor returns the constant c(d) in the variance bound
// Var[Z] <= c(d) * SJ(R) * SJ(S) for the d-dimensional join estimator:
// (3^d - 1) / 4^d (Theorem 3; 1/2 for d = 1 and d = 2, matching
// Sections 4.1.4 and 4.2.1).
func JoinVarianceFactor(dims int) float64 {
	return (math.Pow(3, float64(dims)) - 1) / math.Pow(4, float64(dims))
}

// EpsJoinVarianceFactor returns the constant in Var[Z] <= c * SJ(X_E) *
// SJ(Y_I) for the d-dimensional epsilon-join estimator: 3^d - 1 (Lemma 8).
func EpsJoinVarianceFactor(dims int) float64 {
	return math.Pow(3, float64(dims)) - 1
}

// PlanGroups returns k2 = ceil(2 * lg(1/phi)) median groups (Lemma 1).
func PlanGroups(phi float64) int {
	k2 := int(math.Ceil(2 * math.Log2(1/phi)))
	if k2 < 1 {
		k2 = 1
	}
	return k2
}

// PlanJoinInstances returns (k1, k2) for a d-dimensional spatial join with
// the given self-join sizes and a lower bound on the true join cardinality
// (the "sanity bound" of Section 2.3: the tighter the bound, the fewer
// instances are needed). Per Lemma 1, k1 = ceil(8 * Var / (eps^2 * E^2))
// with Var = c(d) * sjR * sjS.
func PlanJoinInstances(dims int, g Guarantee, sjR, sjS, resultLowerBound float64) (k1, k2 int, err error) {
	if err := g.validate(); err != nil {
		return 0, 0, err
	}
	if !(sjR > 0 && sjS > 0) {
		return 0, 0, fmt.Errorf("core: self-join sizes must be positive (got %g, %g)", sjR, sjS)
	}
	if !(resultLowerBound > 0) {
		return 0, 0, fmt.Errorf("core: result lower bound must be positive, got %g", resultLowerBound)
	}
	varBound := JoinVarianceFactor(dims) * sjR * sjS
	k1f := math.Ceil(8 * varBound / (g.Eps * g.Eps * resultLowerBound * resultLowerBound))
	if k1f < 1 {
		k1f = 1
	}
	if k1f > 1<<30 {
		return 0, 0, fmt.Errorf("core: guarantee requires %g instances; loosen eps/phi or tighten the result bound", k1f)
	}
	return int(k1f), PlanGroups(g.Phi), nil
}

// JoinWordsPerInstancePair returns the number of machine words one atomic
// join estimator instance occupies for BOTH relations together: 2 * 2^d
// counters plus d family seeds (the 1-d case stores "five values" in the
// paper's accounting: X_I, X_E, Y_I, Y_E and one seed; Section 4.1.5).
// Seeds are 32 bytes = 4 words in this implementation but the paper counts
// them as one word; we follow the paper so space comparisons against the
// histogram baselines match its setup.
func JoinWordsPerInstancePair(dims int) int {
	return 2*(1<<uint(dims)) + dims
}

// JoinWordsPerRelation returns the per-relation share of an instance's
// words: 2^d counters plus half the seed words (seeds are shared between
// the two relations; the paper allocates memory "per dataset").
func JoinWordsPerRelation(dims int) float64 {
	return float64(int(1)<<uint(dims)) + float64(dims)/2
}

// CEJoinWordsPerRelation returns the per-relation share of one
// common-endpoints instance: 4^d counters (the {I,E,L,U}^d letter strings
// of Appendix C) plus half the d shared seed words.
func CEJoinWordsPerRelation(dims int) float64 {
	return float64(KindCE.countersPerInstance(dims)) + float64(dims)/2
}

// PointBoxWordsPerRelation returns the per-relation share of one Lemma 8
// two-sketch instance (epsilon-joins and containment joins): a single
// counter per side plus half the d shared seed words. Containment callers
// pass the doubled dimensionality of the B.2 reduction.
func PointBoxWordsPerRelation(dims int) float64 {
	return 1 + float64(dims)/2
}

// RangeWordsPerInstance returns the footprint of one Lemma 9 range-query
// instance: 2^d counters (letter strings in {I,U}^d) plus d seed words -
// a range synopsis summarizes a single relation, so nothing is shared.
func RangeWordsPerInstance(dims int) float64 {
	return float64(int(1)<<uint(dims)) + float64(dims)
}

// InstancesForBudgetWords returns the largest instance count whose
// footprint at wordsPerInstance fits in budgetWords, rounded down to a
// multiple of groups (at least groups). Used by the equal-space
// comparisons of Section 7.
func InstancesForBudgetWords(wordsPerInstance float64, budgetWords, groups int) int {
	n := int(float64(budgetWords) / wordsPerInstance)
	if n < groups {
		n = groups
	}
	n -= n % groups
	if n == 0 {
		n = groups
	}
	return n
}

// InstancesForBudget returns the largest JOIN-sketch instance count whose
// per-relation footprint fits in budgetWords. Other sketch kinds have
// different per-instance footprints; use InstancesForBudgetWords with the
// matching accounting (CEJoinWordsPerRelation, PointBoxWordsPerRelation,
// RangeWordsPerInstance).
func InstancesForBudget(dims int, budgetWords int, groups int) int {
	return InstancesForBudgetWords(JoinWordsPerRelation(dims), budgetWords, groups)
}

// JoinSpaceWords returns the paper-accounting space of a planned join
// sketch pair: instances * JoinWordsPerInstancePair.
func JoinSpaceWords(dims, instances int) int {
	return instances * JoinWordsPerInstancePair(dims)
}

// CESelfJoinWeight returns the paper's SJ(R) accounting for CE sketches in
// one dimension: SJ(X_I) + 2*SJ(X_L) + 2*SJ(X_U) (Appendix C). Provided as
// a helper for variance reasoning; exact SJ terms come from internal/exact.
func CESelfJoinWeight(sjI, sjL, sjU float64) float64 {
	return sjI + 2*sjL + 2*sjU
}

// PlanCEJoinInstances sizes the 1-d strict common-endpoint estimator per
// Lemma 13: Var[Z] <= 2 * SJ(R) * SJ(S) with the CESelfJoinWeight
// accounting, so k1 = ceil(8 * 2 * sjR * sjS / (eps^2 * E^2)). The paper
// proves the bound for one dimension; for d > 1 this planner applies the
// same form with the Theorem 3 dimensional factor as a documented
// heuristic.
func PlanCEJoinInstances(dims int, g Guarantee, sjR, sjS, resultLowerBound float64) (k1, k2 int, err error) {
	if err := g.validate(); err != nil {
		return 0, 0, err
	}
	if !(sjR > 0 && sjS > 0 && resultLowerBound > 0) {
		return 0, 0, fmt.Errorf("core: self-join sizes and result bound must be positive")
	}
	factor := 2.0
	if dims > 1 {
		factor = 2 * JoinVarianceFactor(dims) * 4 // heuristic extension, see doc
	}
	k1f := math.Ceil(8 * factor * sjR * sjS / (g.Eps * g.Eps * resultLowerBound * resultLowerBound))
	if k1f < 1 {
		k1f = 1
	}
	if k1f > 1<<30 {
		return 0, 0, fmt.Errorf("core: guarantee requires %g instances", k1f)
	}
	return int(k1f), PlanGroups(g.Phi), nil
}

// PlanEpsJoinInstances sizes the epsilon-join estimator of Lemma 8:
// k1 = ceil(8 * (3^d - 1) * SJ(X_E) * SJ(Y_I) / (eps^2 * E^2)).
func PlanEpsJoinInstances(dims int, g Guarantee, sjPoints, sjBoxes, resultLowerBound float64) (k1, k2 int, err error) {
	if err := g.validate(); err != nil {
		return 0, 0, err
	}
	if !(sjPoints > 0 && sjBoxes > 0) {
		return 0, 0, fmt.Errorf("core: self-join sizes must be positive (got %g, %g)", sjPoints, sjBoxes)
	}
	if !(resultLowerBound > 0) {
		return 0, 0, fmt.Errorf("core: result lower bound must be positive, got %g", resultLowerBound)
	}
	varBound := EpsJoinVarianceFactor(dims) * sjPoints * sjBoxes
	k1f := math.Ceil(8 * varBound / (g.Eps * g.Eps * resultLowerBound * resultLowerBound))
	if k1f < 1 {
		k1f = 1
	}
	if k1f > 1<<30 {
		return 0, 0, fmt.Errorf("core: guarantee requires %g instances; loosen eps/phi or tighten the result bound", k1f)
	}
	return int(k1f), PlanGroups(g.Phi), nil
}

// RangeVarianceBound returns the Lemma 9 variance bound for a range query
// over a 1-d relation with self-join size sj on a domain of size 2^h:
// Var[Z] <= 2 * (3h + 1) * SJ(R).
func RangeVarianceBound(logDomain int, sj float64) float64 {
	return 2 * (3*float64(logDomain) + 1) * sj
}

// PlanRangeInstances sizes the Lemma 9 range-query estimator for a 1-d
// relation.
func PlanRangeInstances(logDomain int, g Guarantee, sj, resultLowerBound float64) (k1, k2 int, err error) {
	if err := g.validate(); err != nil {
		return 0, 0, err
	}
	if !(sj > 0) {
		return 0, 0, fmt.Errorf("core: self-join size must be positive, got %g", sj)
	}
	if !(resultLowerBound > 0) {
		return 0, 0, fmt.Errorf("core: result lower bound must be positive, got %g", resultLowerBound)
	}
	varBound := RangeVarianceBound(logDomain, sj)
	k1f := math.Ceil(8 * varBound / (g.Eps * g.Eps * resultLowerBound * resultLowerBound))
	if k1f < 1 {
		k1f = 1
	}
	if k1f > 1<<30 {
		return 0, 0, fmt.Errorf("core: guarantee requires %g instances", k1f)
	}
	return int(k1f), PlanGroups(g.Phi), nil
}
