package core

import (
	"fmt"
	"math"

	"repro/geo"
)

// CESketch is the common-endpoint sketch set of Appendices B.1 and C: per
// dimension the letters are I (dyadic interval cover), E (dyadic endpoint
// covers), L (leaf variable of the lower endpoint) and U (leaf variable of
// the upper endpoint), giving 4^d counters per instance. Unlike JoinSketch
// it needs no endpoint transformation: the L/U sketches explicitly count
// coinciding endpoints, and the estimators subtract the over-counts
// (Lemma 13 for strict overlap, the Appendix C inclusion-exclusion for the
// extended join of Definition 4).
//
// Letter encoding: counter index is a base-4 number with digit i in
// {0=I, 1=E, 2=L, 3=U} for dimension i.
type CESketch struct {
	plan     *Plan
	counters []int64 // [instance * 4^d + w]
	count    int64
	buf      *coverBuf
	sums     *letterSums
}

// CE letter digits.
const (
	ceI = 0
	ceE = 1
	ceL = 2
	ceU = 3
)

// NewCESketch returns an empty common-endpoint sketch.
func (p *Plan) NewCESketch() *CESketch {
	nw := 1
	for i := 0; i < p.cfg.Dims; i++ {
		nw *= 4
	}
	return &CESketch{
		plan:     p,
		counters: make([]int64, p.cfg.Instances*nw),
		buf:      newCoverBuf(p.cfg.Dims),
		sums:     newLetterSums(p.cfg.Dims, 4, p.cfg.Instances),
	}
}

// Plan returns the plan the sketch was built from.
func (s *CESketch) Plan() *Plan { return s.plan }

// Count returns the number of objects summarized.
func (s *CESketch) Count() int64 { return s.count }

// Insert adds a hyper-rectangle to the sketch.
func (s *CESketch) Insert(rect geo.HyperRect) error { return s.update(rect, +1) }

// Delete removes a previously inserted hyper-rectangle.
func (s *CESketch) Delete(rect geo.HyperRect) error { return s.update(rect, -1) }

func (s *CESketch) update(rect geo.HyperRect, sign int64) error {
	if err := s.plan.checkRect(rect); err != nil {
		return err
	}
	s.buf.load(s.plan, rect)
	s.applyCovers(rect, s.buf, sign, s.counters, s.sums)
	s.count += sign
	return nil
}

// applyCovers folds one object's covers into dst, id-major as in
// JoinSketch.applyCovers but over the four {I,E,L,U} letter planes.
func (s *CESketch) applyCovers(rect geo.HyperRect, buf *coverBuf, sign int64, dst []int64, sums *letterSums) {
	p := s.plan
	d := p.cfg.Dims
	inst := p.cfg.Instances
	nw := pow4(d)
	sums.reset()
	for i := 0; i < d; i++ {
		p.sumSigns(i, buf.cover[i], sums.plane(i, ceI))
		eAcc := sums.plane(i, ceE)
		p.sumSigns(i, buf.ptLo[i], eAcc)
		p.sumSigns(i, buf.ptHi[i], eAcc)
		leaves := [2]uint64{p.doms[i].LeafID(rect[i].Lo), p.doms[i].LeafID(rect[i].Hi)}
		p.sumSigns(i, leaves[:1], sums.plane(i, ceL))
		p.sumSigns(i, leaves[1:], sums.plane(i, ceU))
	}
	var lp [MaxDims][4][]int64
	for i := 0; i < d; i++ {
		for l := 0; l < 4; l++ {
			lp[i][l] = sums.plane(i, l)
		}
	}
	for k := 0; k < inst; k++ {
		base := k * nw
		for w := 0; w < nw; w++ {
			prod := sign
			ww := w
			for i := 0; i < d; i++ {
				prod *= lp[i][ww&3][k]
				ww >>= 2
			}
			dst[base+w] += prod
		}
	}
}

// InsertAll bulk-loads rects, validating all of them first and sharding
// across objects exactly as JoinSketch.InsertAll does.
func (s *CESketch) InsertAll(rects []geo.HyperRect) error {
	for _, r := range rects {
		if err := s.plan.checkRect(r); err != nil {
			return err
		}
	}
	p := s.plan
	shardBulk(len(rects), s.counters, func(start, end int, dst []int64) {
		buf := newCoverBuf(p.cfg.Dims)
		sums := newLetterSums(p.cfg.Dims, 4, p.cfg.Instances)
		for idx := start; idx < end; idx++ {
			buf.load(p, rects[idx])
			s.applyCovers(rects[idx], buf, +1, dst, sums)
		}
	})
	s.count += int64(len(rects))
	return nil
}

// Merge adds the counters of other into s. Both sketches must come from the
// same plan; merging the sketches of disjoint streams is equivalent to
// sketching their union.
func (s *CESketch) Merge(other *CESketch) error {
	return mergeSketch(s.plan, other.plan, s.counters, other.counters, &s.count, other.count)
}

// Counter returns the X_w counter of one instance; w is the base-4 letter
// index. Exposed for tests.
func (s *CESketch) Counter(instance, w int) int64 {
	return s.counters[instance*pow4(s.plan.cfg.Dims)+w]
}

// cePairing is one per-dimension pairing term of a CE estimator: the X-side
// letter, the Y-side letter and the coefficient it carries.
type cePairing struct {
	x, y  int
	coeff int64
}

// ceStrictPairings implements the per-dimension factor of the strict
// estimator (Lemma 13): (X_I Y_E + X_E Y_I - 2 X_L Y_U - 2 X_U Y_L -
// X_L Y_L - X_U Y_U) / 2. Per overlapping dimension the factor contributes
// 2 in expectation (hence the global 2^-d), and the subtraction removes the
// meet/shared-endpoint over-counts.
var ceStrictPairings = []cePairing{
	{ceI, ceE, 1}, {ceE, ceI, 1},
	{ceL, ceU, -2}, {ceU, ceL, -2},
	{ceL, ceL, -1}, {ceU, ceU, -1},
}

// ceExtendedPairings implements the per-dimension factor of the extended
// (Definition 4) estimator of Appendix C: (X_I Y_E + X_E Y_I - X_L Y_L -
// X_U Y_U) / 2, so that a "meet" in a dimension counts as intersecting.
var ceExtendedPairings = []cePairing{
	{ceI, ceE, 1}, {ceE, ceI, 1},
	{ceL, ceL, -1}, {ceU, ceU, -1},
}

// EstimateJoinCE estimates |R join_o S| (strict overlap, Definition 1) from
// common-endpoint sketches, valid for arbitrary inputs - Assumption 1 is
// NOT required (Appendix C, Lemma 13 and its d-dimensional product
// generalization).
func EstimateJoinCE(x, y *CESketch) (Estimate, error) {
	return estimateCE(x, y, ceStrictPairings)
}

// EstimateJoinExtCE estimates the extended join |R join+_o S| of
// Definition 4 (boundary contact counts) from common-endpoint sketches
// (Appendix C).
func EstimateJoinExtCE(x, y *CESketch) (Estimate, error) {
	return estimateCE(x, y, ceExtendedPairings)
}

func estimateCE(x, y *CESketch, pairings []cePairing) (Estimate, error) {
	if !samePlan(x.plan, y.plan) {
		return Estimate{}, fmt.Errorf("core: sketches come from different plans")
	}
	p := x.plan
	sc := p.GetScratch()
	defer p.PutScratch(sc)
	d := p.cfg.Dims
	nw := pow4(d)
	scale := 1.0 / float64(int64(1)<<uint(d))
	// Expand the product of per-dimension pairing choices once into a flat
	// term list, then sweep it per instance - the recursion used to run per
	// instance, re-deriving the same len(pairings)^d terms every time. The
	// expansion order (dimension 0 outermost) and the per-term multiply
	// order are preserved, so estimates are bit-identical.
	nterms := 1
	for i := 0; i < d; i++ {
		nterms *= len(pairings)
	}
	wx, wy, coeff := sc.ceTerms(nterms)
	expandCE(d, pairings, wx, wy, coeff)
	zs := sc.instSums(p)
	for inst := range zs {
		xbase := x.counters[inst*nw : (inst+1)*nw]
		ybase := y.counters[inst*nw : (inst+1)*nw]
		var z float64
		for t := range coeff {
			z += coeff[t] * float64(xbase[wx[t]]) * float64(ybase[wy[t]])
		}
		zs[inst] = z * scale
	}
	return boostWith(zs, p.cfg.Groups, sc.medianBuf(p)), nil
}

// expandCE fills the flattened pairing expansion: term i holds the X- and
// Y-side counter offsets and the signed coefficient of one leaf of the
// per-dimension pairing product, enumerated depth-first with dimension 0
// outermost (the historical recursion order).
func expandCE(d int, pairings []cePairing, wx, wy []int32, coeff []float64) {
	n := 0
	var rec func(dim, ax, ay int, c int64)
	rec = func(dim, ax, ay int, c int64) {
		if dim == d {
			wx[n], wy[n], coeff[n] = int32(ax), int32(ay), float64(c)
			n++
			return
		}
		shift := 2 * uint(dim)
		for _, pr := range pairings {
			rec(dim+1, ax|pr.x<<shift, ay|pr.y<<shift, c*pr.coeff)
		}
	}
	rec(0, 0, 0, 1)
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

func pow4(d int) int {
	n := 1
	for i := 0; i < d; i++ {
		n *= 4
	}
	return n
}
