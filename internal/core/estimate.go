package core

import (
	"fmt"

	"repro/geo"
)

// The estimators: each reads sketches of the kinds it names and refuses
// any other, then boosts its per-instance values by the median of means
// of Section 2.3.

// want reports, as an error, a sketch that is not of kind k.
func (s *Sketch) want(k Kind) error {
	if s.kind != k {
		return fmt.Errorf("core: the estimator reads %v sketches, got a %v sketch", k, s.kind)
	}
	return nil
}

// pairPlan checks that x and y are sketches of kinds kx and ky from one
// plan, and returns that plan.
func pairPlan(x, y *Sketch, kx, ky Kind) (*Plan, error) {
	if err := x.want(kx); err != nil {
		return nil, err
	}
	if err := y.want(ky); err != nil {
		return nil, err
	}
	if !samePlan(x.plan, y.plan) {
		return nil, fmt.Errorf("core: sketches come from different plans")
	}
	return x.plan, nil
}

// EstimateJoin estimates |R join_o S| from the KindJoin sketches of R and
// S per Theorems 1-3: each instance contributes
// Z = 2^-d * sum_w X_w * Y_w-bar, where w-bar swaps every letter I and E.
// Both sketches must come from the same plan.
func EstimateJoin(x, y *Sketch) (Estimate, error) {
	p, err := pairPlan(x, y, KindJoin, KindJoin)
	if err != nil {
		return Estimate{}, err
	}
	sc := p.GetScratch()
	defer p.PutScratch(sc)
	d := p.cfg.Dims
	nw := 1 << uint(d)
	mask := nw - 1
	scale := 1.0 / float64(int64(1)<<uint(d))
	zs := sc.instSums(p)
	for inst := range zs {
		base := inst * nw
		var z float64
		for w := 0; w < nw; w++ {
			z += float64(x.counters[base+w]) * float64(y.counters[base+(w^mask)])
		}
		zs[inst] = z * scale
	}
	return boostWith(zs, p.cfg.Groups, sc.medianBuf(p)), nil
}

// EstimateSelfJoin estimates SJ(R) = sum_w SJ(X_w) from a KindJoin
// sketch's own counters: E[X_w^2] = SJ(X_w) - the original self-join-size
// use of AMS sketches (Section 2.2) turned inward. This lets a deployment
// feed the Theorem 1 planner without any offline pass over the data: the
// synopsis estimates its own variance budget.
func (s *Sketch) EstimateSelfJoin() (Estimate, error) {
	if err := s.want(KindJoin); err != nil {
		return Estimate{}, err
	}
	p := s.plan
	sc := p.GetScratch()
	defer p.PutScratch(sc)
	nw := 1 << uint(p.cfg.Dims)
	zs := sc.instSums(p)
	for inst := range zs {
		base := inst * nw
		var z float64
		for w := 0; w < nw; w++ {
			v := float64(s.counters[base+w])
			z += v * v
		}
		zs[inst] = z
	}
	return boostWith(zs, p.cfg.Groups, sc.medianBuf(p)), nil
}

// CE letter digits.
const (
	ceI = 0
	ceE = 1
	ceL = 2
	ceU = 3
)

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
// KindCE sketches, valid for arbitrary inputs - Assumption 1 is NOT
// required (Appendix C, Lemma 13 and its d-dimensional product
// generalization).
func EstimateJoinCE(x, y *Sketch) (Estimate, error) {
	return estimateCE(x, y, ceStrictPairings)
}

// EstimateJoinExtCE estimates the extended join |R join+_o S| of
// Definition 4 (boundary contact counts) from KindCE sketches
// (Appendix C).
func EstimateJoinExtCE(x, y *Sketch) (Estimate, error) {
	return estimateCE(x, y, ceExtendedPairings)
}

func estimateCE(x, y *Sketch, pairings []cePairing) (Estimate, error) {
	p, err := pairPlan(x, y, KindCE, KindCE)
	if err != nil {
		return Estimate{}, err
	}
	sc := p.GetScratch()
	defer p.PutScratch(sc)
	d := p.cfg.Dims
	nw := KindCE.countersPerInstance(d)
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

// EstimatePointInBox estimates the number of (point, box) pairs with the
// point inside the box from a KindPoint and a KindBox sketch of one plan:
// Z = X_E * Y_I per instance (Lemmas 7-8). Two query types reduce to it:
//
//   - epsilon-joins (Definition 2, L-infinity metric): expand each point of
//     B into the hyper-cube of side 2*eps around it (geo.Ball) and insert
//     the cubes into the box sketch;
//   - containment joins (Appendix B.2): a d-dim interval containment
//     r inside s becomes a 2d-dim point-in-box test with point
//     ContainmentPoint(r) and box ContainmentBox(s).
//
// No endpoint transformation is needed: closed containment is exactly the
// predicate both reductions want.
func EstimatePointInBox(pts, boxes *Sketch) (Estimate, error) {
	p, err := pairPlan(pts, boxes, KindPoint, KindBox)
	if err != nil {
		return Estimate{}, err
	}
	sc := p.GetScratch()
	defer p.PutScratch(sc)
	zs := sc.instSums(p)
	for inst := range zs {
		zs[inst] = float64(pts.counters[inst]) * float64(boxes.counters[inst])
	}
	return boostWith(zs, p.cfg.Groups, sc.medianBuf(p)), nil
}

// ContainmentPoint maps a d-dim hyper-rectangle r to the 2d-dim point
// (l(r_1), u(r_1), ..., l(r_d), u(r_d)) of the Appendix B.2 reduction.
func ContainmentPoint(r geo.HyperRect) geo.Point {
	pt := make(geo.Point, 2*len(r))
	for i, iv := range r {
		pt[2*i] = iv.Lo
		pt[2*i+1] = iv.Hi
	}
	return pt
}

// ContainmentBox maps a d-dim hyper-rectangle s to the 2d-dim box
// prod_j [l(s_j), u(s_j)]^2 of the Appendix B.2 reduction: r is contained
// in s iff ContainmentPoint(r) lies in ContainmentBox(s).
func ContainmentBox(s geo.HyperRect) geo.HyperRect {
	box := make(geo.HyperRect, 2*len(s))
	for i, iv := range s {
		box[2*i] = iv
		box[2*i+1] = iv
	}
	return box
}

// EstimateRange estimates |Q(q, R)|, the number of objects a KindRange
// sketch summarizes that overlap the query hyper-rectangle q
// (Definition 3), per Lemma 9 and its d-dimensional generalization. In one
// dimension, for q = [u, v], Z = xi-bar[u,v] * X_U + xi-bar[v] * X_I: an
// interval [a, b] is selected iff its upper endpoint lies in [u, v] XOR v
// lies in [a, b] - mutually exclusive and exhaustive events under
// Assumption 1. The query must live in the same (possibly transformed)
// domain as the inserted data.
func (s *Sketch) EstimateRange(q geo.HyperRect) (Estimate, error) {
	sc := s.plan.GetScratch()
	defer s.plan.PutScratch(sc)
	return s.EstimateRangeWith(q, sc)
}

// EstimateRangeWith is EstimateRange with caller-provided scratch, the
// batched-query fast path: one scratch (from the sketch plan's pool) serves
// a whole batch of queries with no per-query allocation beyond the returned
// Estimate's GroupMeans.
func (s *Sketch) EstimateRangeWith(q geo.HyperRect, sc *EstScratch) (Estimate, error) {
	if err := s.want(KindRange); err != nil {
		return Estimate{}, err
	}
	p := s.plan
	if err := p.checkRect(q); err != nil {
		return Estimate{}, fmt.Errorf("core: bad range query: %w", err)
	}
	d := p.cfg.Dims
	nw := 1 << uint(d)
	b, qv := sc.letterBufs(p, len(rangeQueryLetters))
	p.sumLetters(rangeQueryLetters, q, nil, b, qv)
	var lp [MaxDims][2][]int64
	for i := 0; i < d; i++ {
		lp[i][0], lp[i][1] = qv.plane(i, 0), qv.plane(i, 1)
	}
	zs := sc.instSums(p)
	for inst := range zs {
		base := inst * nw
		var z float64
		for w := 0; w < nw; w++ {
			prod := int64(1)
			for i := 0; i < d; i++ {
				prod *= lp[i][(w>>uint(i))&1][inst]
			}
			z += float64(prod) * float64(s.counters[base+w])
		}
		zs[inst] = z
	}
	return boostWith(zs, p.cfg.Groups, sc.medianBuf(p)), nil
}
