package spatial

import (
	"fmt"

	"repro/geo"
	"repro/internal/core"
)

// The table of estimator kinds: everything the four estimators do
// differently - their sides, the transform each side applies, the core
// sketch types, the plan geometry, the word accounting, the Guarantee
// planner and the estimate kernel - read by the one lifecycle of
// estimator.go. A join has two entries, one per Mode, because the mode
// changes its sketches and its domain.

// The core sketch types, erased for the lifecycle.
var (
	joinSketches  = sketchTypeOf(rectOf, (*core.Plan).NewJoinSketch, core.UnmarshalJoinSketch)
	ceSketches    = sketchTypeOf(rectOf, (*core.Plan).NewCESketch, core.UnmarshalCESketch)
	rangeSketches = sketchTypeOf(rectOf, (*core.Plan).NewRangeSketch, core.UnmarshalRangeSketch)
	pointSketches = sketchTypeOf(pointOf, (*core.Plan).NewPointSketch, core.UnmarshalPointSketch)
	boxSketches   = sketchTypeOf(rectOf, (*core.Plan).NewBoxSketch, core.UnmarshalBoxSketch)
)

var (
	joinKind = kindSpec{
		kind: KindJoin, maxDims: core.MaxDims, extent: true,
		sides: []sideSpec{
			{side: SideLeft, input: keep, sketch: joinSketches},
			{side: SideRight, input: shrink, sketch: joinSketches},
		},
		shape: func(p *params) (shape, error) {
			return shape{dims: p.dims, logDomain: log2ceil(geo.TransformDomain(p.domainSize)),
				maxLevel: resolveMaxLevel(p.maxLevel, p.domainSize), words: core.JoinWordsPerRelation(p.dims)}, nil
		},
		guarantee: planJoin,
		cardinality: func(s shard) (core.Estimate, error) {
			return core.EstimateJoin(s[0].(*core.JoinSketch), s[1].(*core.JoinSketch))
		},
	}
	// joinCEKind is a join in ModeCommonEndpoints: the endpoint sketches
	// of Appendix C over the untransformed domain.
	joinCEKind = kindSpec{
		kind: KindJoin, maxDims: core.MaxDims, extent: true,
		sides: []sideSpec{
			{side: SideLeft, sketch: ceSketches},
			{side: SideRight, sketch: ceSketches},
		},
		shape: func(p *params) (shape, error) {
			return shape{dims: p.dims, logDomain: log2ceil(p.domainSize),
				maxLevel: resolveMaxLevel(p.maxLevel, p.domainSize), words: core.CEJoinWordsPerRelation(p.dims)}, nil
		},
		guarantee: planJoin,
		cardinality: func(s shard) (core.Estimate, error) {
			return core.EstimateJoinCE(s[0].(*core.CESketch), s[1].(*core.CESketch))
		},
	}
	rangeKind = kindSpec{
		kind: KindRange, maxDims: core.MaxDims,
		sides: []sideSpec{{side: SideData, input: keep, sketch: rangeSketches}},
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
			{side: SideLeft, points: true, sketch: pointSketches},
			{side: SideRight, points: true, input: ball, sketch: boxSketches},
		},
		shape: func(p *params) (shape, error) {
			if p.eps >= p.domainSize {
				return shape{}, fmt.Errorf("spatial: eps %d must be smaller than the domain %d", p.eps, p.domainSize)
			}
			return shape{dims: p.dims, logDomain: log2ceil(p.domainSize),
				maxLevel: epsResolveCap(p.maxLevel, p.eps), words: core.PointBoxWordsPerRelation(p.dims)}, nil
		},
		guarantee:   planPointBox,
		cardinality: estimatePointInBox,
	}
	// containmentKind works in the doubled dimensionality of the B.2
	// reduction.
	containmentKind = kindSpec{
		kind: KindContainment, maxDims: core.MaxDims / 2,
		sides: []sideSpec{
			{side: SideInner, input: containmentPoint, sketch: pointSketches},
			{side: SideOuter, input: containmentBox, sketch: boxSketches},
		},
		shape: func(p *params) (shape, error) {
			return shape{dims: 2 * p.dims, logDomain: log2ceil(p.domainSize),
				maxLevel: resolveMaxLevel(p.maxLevel, p.domainSize), words: core.PointBoxWordsPerRelation(2 * p.dims)}, nil
		},
		guarantee:   planPointBox,
		cardinality: estimatePointInBox,
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

func rectOf(o object) geo.HyperRect { return o.rect }
func pointOf(o object) geo.Point    { return o.pt }

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

// estimatePointInBox is the Lemma 8 kernel of epsilon- and containment
// joins.
func estimatePointInBox(s shard) (core.Estimate, error) {
	return core.EstimatePointInBox(s[0].(*core.PointSketch), s[1].(*core.BoxSketch))
}
