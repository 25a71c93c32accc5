package spatial

import (
	"fmt"

	"repro/geo"
	"repro/internal/core"
	"repro/internal/dyadic"
	"repro/internal/exact"
)

// Planning helpers (Lemma 1 / Theorem 1).
//
// Sizing a sketch for an (eps, phi) guarantee needs bounds on the
// self-join sizes SJ(R), SJ(S) of the inputs and a lower bound on the
// result. The helpers below compute EXACT self-join sizes offline (one
// pass, memory linear in distinct cover entries) - the "historic data"
// route the paper describes in Section 2.3. Production deployments can
// instead carry forward the SJ of a previous load, which changes slowly
// for stable distributions (the property behind the flat space curve of
// Figure 8).

// SelfJoinSizeLeft returns the exact SJ(R) of a prospective left input
// under the given configuration (ModeTransform accounting: the data is
// endpoint-transformed exactly as the estimator would).
func SelfJoinSizeLeft(cfg JoinConfig, rects []geo.HyperRect) (float64, error) {
	return selfJoinSize(cfg, rects, false)
}

// SelfJoinSizeRight returns the exact SJ(S) of a prospective right input
// under the given configuration (the right side is shrunk, as the
// estimator would).
func SelfJoinSizeRight(cfg JoinConfig, rects []geo.HyperRect) (float64, error) {
	return selfJoinSize(cfg, rects, true)
}

func selfJoinSize(cfg JoinConfig, rects []geo.HyperRect, shrink bool) (float64, error) {
	if cfg.Mode != ModeTransform {
		return 0, fmt.Errorf("spatial: self-join planning helpers support ModeTransform only")
	}
	if cfg.Dims < 1 {
		return 0, fmt.Errorf("spatial: dims must be >= 1")
	}
	p := params{dims: cfg.Dims, domainSize: cfg.DomainSize, maxLevel: cfg.MaxLevel}
	sh, err := joinKind.shape(&p)
	if err != nil {
		return 0, err
	}
	dom, err := dyadic.New(sh.logDomain)
	if err != nil {
		return 0, err
	}
	ml := sh.maxLevel
	if ml == 0 {
		ml = sh.logDomain
	}
	doms, mls := make([]dyadic.Domain, cfg.Dims), make([]int, cfg.Dims)
	for i := range doms {
		doms[i], mls[i] = dom, ml
	}
	side := joinKind.sides[0]
	if shrink {
		side = joinKind.sides[1]
	}
	t := make([]geo.HyperRect, len(rects))
	for i, r := range rects {
		t[i] = side.input(&p, object{rect: r}).rect
	}
	sj, err := exact.SelfJoinSizes(doms, mls, t)
	if err != nil {
		return 0, err
	}
	return sj.Total, nil
}

// PlanJoin returns the (instances, groups) the Theorem 1-3 sizing demands
// for a join guarantee, given self-join size bounds and a result lower
// bound. Feed the result into Sizing{Instances, Groups} or use
// Sizing{Guarantee: ...} directly.
func PlanJoin(dims int, g Guarantee, sjLeft, sjRight, resultLowerBound float64) (instances, groups int, err error) {
	k1, k2, err := core.PlanJoinInstances(dims, core.Guarantee(g), sjLeft, sjRight, resultLowerBound)
	if err != nil {
		return 0, 0, err
	}
	return k1 * k2, k2, nil
}

// JoinGuaranteeSpaceWords returns the paper-accounting footprint of the
// synopsis PlanJoin would allocate - the quantity plotted in Figure 8.
func JoinGuaranteeSpaceWords(dims int, g Guarantee, sjLeft, sjRight, resultLowerBound float64) (int, error) {
	instances, _, err := PlanJoin(dims, g, sjLeft, sjRight, resultLowerBound)
	if err != nil {
		return 0, err
	}
	return core.JoinSpaceWords(dims, instances), nil
}

// JoinVarianceFactor exposes the paper's variance constant c(d) with
// Var[Z] <= c(d) * SJ(R) * SJ(S) (Theorem 3).
func JoinVarianceFactor(dims int) float64 { return core.JoinVarianceFactor(dims) }
