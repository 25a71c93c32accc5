package spatial

import (
	"fmt"

	"repro/geo"
	"repro/internal/core"
)

// The table of estimator kinds: everything the four estimators do
// differently - their sides, the transform each side applies, the core
// sketch kinds, the plan geometry, the word accounting, the Guarantee
// planner and the estimate kernel - read by the one lifecycle of
// estimator.go. A join has two entries, one per Mode, because the mode
// changes its sketches and its domain.

var (
	joinKind = kindSpec{
		kind: KindJoin, maxDims: core.MaxDims, extent: true,
		sides: []sideSpec{
			{side: SideLeft, input: keep, kind: core.KindJoin},
			{side: SideRight, input: shrink, kind: core.KindJoin},
		},
		shape: func(p *params) (shape, error) {
			return shape{dims: p.dims, logDomain: log2ceil(geo.TransformDomain(p.domainSize)),
				maxLevel: resolveMaxLevel(p.maxLevel, p.domainSize), words: core.JoinWordsPerRelation(p.dims)}, nil
		},
		guarantee:   planJoin,
		cardinality: core.EstimateJoin,
	}
	// joinCEKind is a join in ModeCommonEndpoints: the endpoint sketches
	// of Appendix C over the untransformed domain.
	joinCEKind = kindSpec{
		kind: KindJoin, maxDims: core.MaxDims, extent: true,
		sides: []sideSpec{
			{side: SideLeft, kind: core.KindCE},
			{side: SideRight, kind: core.KindCE},
		},
		shape: func(p *params) (shape, error) {
			return shape{dims: p.dims, logDomain: log2ceil(p.domainSize),
				maxLevel: resolveMaxLevel(p.maxLevel, p.domainSize), words: core.CEJoinWordsPerRelation(p.dims)}, nil
		},
		guarantee:   planJoin,
		cardinality: core.EstimateJoinCE,
	}
	rangeKind = kindSpec{
		kind: KindRange, maxDims: core.MaxDims,
		sides: []sideSpec{{side: SideData, input: keep, kind: core.KindRange}},
		shape: func(p *params) (shape, error) {
			return shape{dims: p.dims, logDomain: log2ceil(geo.TransformDomain(p.domainSize)),
				maxLevel: resolveMaxLevel(p.maxLevel, p.domainSize), words: core.RangeWordsPerInstance(p.dims)}, nil
		},
		// Lemma 9 on the endpoint-transformed domain, with SelfJoinLeft
		// as SJ(R). core has no d-dimensional range planner.
		guarantee: func(sh shape, g core.Guarantee, s Sizing) (int, int, error) {
			if sh.dims > 1 {
				return 0, 0, fmt.Errorf("spatial: Guarantee sizing of range estimators is 1-d only (Lemma 9); size a %d-d range estimator by Instances or MemoryWords", sh.dims)
			}
			return core.PlanRangeInstances(sh.logDomain, g, s.SelfJoinLeft, s.ResultLowerBound)
		},
	}
	epsJoinKind = kindSpec{
		kind: KindEpsJoin, maxDims: core.MaxDims,
		sides: []sideSpec{
			{side: SideLeft, points: true, kind: core.KindPoint},
			{side: SideRight, points: true, input: ball, kind: core.KindBox},
		},
		shape: func(p *params) (shape, error) {
			if p.eps >= p.domainSize {
				return shape{}, fmt.Errorf("spatial: eps %d must be smaller than the domain %d", p.eps, p.domainSize)
			}
			return shape{dims: p.dims, logDomain: log2ceil(p.domainSize),
				maxLevel: epsResolveCap(p.maxLevel, p.eps), words: core.PointBoxWordsPerRelation(p.dims)}, nil
		},
		guarantee:   planPointBox,
		cardinality: core.EstimatePointInBox,
	}
	// containmentKind works in the doubled dimensionality of the B.2
	// reduction.
	containmentKind = kindSpec{
		kind: KindContainment, maxDims: core.MaxDims / 2,
		sides: []sideSpec{
			{side: SideInner, input: containmentPoint, kind: core.KindPoint},
			{side: SideOuter, input: containmentBox, kind: core.KindBox},
		},
		shape: func(p *params) (shape, error) {
			return shape{dims: 2 * p.dims, logDomain: log2ceil(p.domainSize),
				maxLevel: resolveMaxLevel(p.maxLevel, p.domainSize), words: core.PointBoxWordsPerRelation(2 * p.dims)}, nil
		},
		guarantee:   planPointBox,
		cardinality: core.EstimatePointInBox,
	}
)

// kindOf returns the table entry of a kind (and, for joins, of a mode).
// k must be one of the four kinds; SnapshotKind checks decoded ones.
func kindOf(k Kind, m Mode) *kindSpec {
	switch k {
	case KindJoin:
		if m == ModeCommonEndpoints {
			return &joinCEKind
		}
		return &joinKind
	case KindRange:
		return &rangeKind
	case KindEpsJoin:
		return &epsJoinKind
	}
	return &containmentKind
}

// keep and shrink are the Section 5.2 endpoint transformation: the left
// (or data) side keeps its objects, the right (or query) side shrinks.
func keep(_ *params, o object) object   { return object{rect: geo.TransformKeepRect(o.rect)} }
func shrink(_ *params, o object) object { return object{rect: geo.TransformShrinkRect(o.rect)} }

// ball expands a right epsilon-join point to its eps-ball.
func ball(p *params, o object) object {
	return object{rect: geo.Ball(o.pt, p.eps, p.domainSize)}
}

// containmentPoint and containmentBox are the Appendix B.2 reduction:
// an inner object becomes a 2d-dimensional point, an outer one a box.
func containmentPoint(_ *params, o object) object {
	return object{pt: core.ContainmentPoint(o.rect)}
}
func containmentBox(_ *params, o object) object {
	return object{rect: core.ContainmentBox(o.rect)}
}

// planJoin sizes a join, in either mode, by Theorem 3.
func planJoin(sh shape, g core.Guarantee, s Sizing) (int, int, error) {
	return core.PlanJoinInstances(sh.dims, g, s.SelfJoinLeft, s.SelfJoinRight, s.ResultLowerBound)
}

// planPointBox sizes the point/box sketches of epsilon- and containment
// joins by Lemma 8, at the plan's dimensionality.
func planPointBox(sh shape, g core.Guarantee, s Sizing) (int, int, error) {
	return core.PlanEpsJoinInstances(sh.dims, g, s.SelfJoinLeft, s.SelfJoinRight, s.ResultLowerBound)
}
