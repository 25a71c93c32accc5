package core

import (
	"fmt"

	"repro/geo"
)

// PointSketch and BoxSketch implement the two-sketch estimator of
// Section 6.3 (Lemmas 7 and 8): the point sketch is
// X_E = sum over points of prod_i xi-bar[a_i], the box sketch is
// Y_I = sum over hyper-rectangles of prod_i xi-bar[l_i, u_i], and
// Z = X_E * Y_I is an unbiased estimator of the number of (point, box)
// pairs with the point inside the box (closed containment).
//
// Two query types reduce to this estimator:
//
//   - epsilon-joins (Definition 2, L-infinity metric): expand each point of
//     B into the hyper-cube of side 2*eps around it (geo.Ball) and insert
//     the cubes into the BoxSketch;
//   - containment joins (Appendix B.2): a d-dim interval containment
//     r inside s becomes a 2d-dim point-in-box test with point
//     (l(r_1), u(r_1), ..., l(r_d), u(r_d)) and box
//     prod_j [l(s_j), u(s_j)]^2.
//
// No endpoint transformation is needed: closed containment is exactly the
// predicate both reductions want.

// PointSketch summarizes a set of points: one counter per instance.
type PointSketch struct {
	plan     *Plan
	counters []int64 // [instance]
	count    int64
	ptBuf    [][]uint64
	sums     *letterSums
}

// NewPointSketch returns an empty point sketch.
func (p *Plan) NewPointSketch() *PointSketch {
	return &PointSketch{
		plan:     p,
		counters: make([]int64, p.cfg.Instances),
		ptBuf:    make([][]uint64, p.cfg.Dims),
		sums:     newLetterSums(p.cfg.Dims, 1, p.cfg.Instances),
	}
}

// Plan returns the plan the sketch was built from.
func (s *PointSketch) Plan() *Plan { return s.plan }

// Count returns the number of points summarized.
func (s *PointSketch) Count() int64 { return s.count }

// Insert adds a point.
func (s *PointSketch) Insert(pt geo.Point) error { return s.update(pt, +1) }

// Delete removes a previously inserted point.
func (s *PointSketch) Delete(pt geo.Point) error { return s.update(pt, -1) }

func (s *PointSketch) update(pt geo.Point, sign int64) error {
	if err := s.plan.checkPoint(pt); err != nil {
		return err
	}
	s.apply(pt, sign, s.counters, s.ptBuf, s.sums)
	s.count += sign
	return nil
}

// apply folds one point's covers into dst, id-major over the plan's families.
func (s *PointSketch) apply(pt geo.Point, sign int64, dst []int64, ptBuf [][]uint64, sums *letterSums) {
	p := s.plan
	d := p.cfg.Dims
	sums.reset()
	for i := 0; i < d; i++ {
		ptBuf[i] = p.doms[i].PointCoverMax(pt[i], p.maxLevel[i], ptBuf[i][:0])
		p.sumSigns(i, ptBuf[i], sums.plane(i, 0))
	}
	for inst := 0; inst < p.cfg.Instances; inst++ {
		prod := sign
		for i := 0; i < d; i++ {
			prod *= sums.plane(i, 0)[inst]
		}
		dst[inst] += prod
	}
}

// InsertAll bulk-loads points, sharding across objects as
// JoinSketch.InsertAll does.
func (s *PointSketch) InsertAll(pts []geo.Point) error {
	for _, pt := range pts {
		if err := s.plan.checkPoint(pt); err != nil {
			return err
		}
	}
	p := s.plan
	shardBulk(len(pts), s.counters, func(start, end int, dst []int64) {
		ptBuf := make([][]uint64, p.cfg.Dims)
		sums := newLetterSums(p.cfg.Dims, 1, p.cfg.Instances)
		for idx := start; idx < end; idx++ {
			s.apply(pts[idx], +1, dst, ptBuf, sums)
		}
	})
	s.count += int64(len(pts))
	return nil
}

// Merge adds the counters of other into s. Both sketches must come from the
// same plan.
func (s *PointSketch) Merge(other *PointSketch) error {
	return mergeSketch(s.plan, other.plan, s.counters, other.counters, &s.count, other.count)
}

// BoxSketch summarizes a set of hyper-rectangles with pure interval covers:
// one counter per instance.
type BoxSketch struct {
	plan     *Plan
	counters []int64 // [instance]
	count    int64
	covBuf   [][]uint64
	sums     *letterSums
}

// NewBoxSketch returns an empty box sketch.
func (p *Plan) NewBoxSketch() *BoxSketch {
	return &BoxSketch{
		plan:     p,
		counters: make([]int64, p.cfg.Instances),
		covBuf:   make([][]uint64, p.cfg.Dims),
		sums:     newLetterSums(p.cfg.Dims, 1, p.cfg.Instances),
	}
}

// Plan returns the plan the sketch was built from.
func (s *BoxSketch) Plan() *Plan { return s.plan }

// Count returns the number of boxes summarized.
func (s *BoxSketch) Count() int64 { return s.count }

// Insert adds a hyper-rectangle.
func (s *BoxSketch) Insert(rect geo.HyperRect) error { return s.update(rect, +1) }

// Delete removes a previously inserted hyper-rectangle.
func (s *BoxSketch) Delete(rect geo.HyperRect) error { return s.update(rect, -1) }

func (s *BoxSketch) update(rect geo.HyperRect, sign int64) error {
	if err := s.plan.checkRect(rect); err != nil {
		return err
	}
	s.apply(rect, sign, s.counters, s.covBuf, s.sums)
	s.count += sign
	return nil
}

// apply folds one box's interval covers into dst, id-major over the plan's families.
func (s *BoxSketch) apply(rect geo.HyperRect, sign int64, dst []int64, covBuf [][]uint64, sums *letterSums) {
	p := s.plan
	d := p.cfg.Dims
	sums.reset()
	for i := 0; i < d; i++ {
		covBuf[i] = p.doms[i].CoverMax(rect[i].Lo, rect[i].Hi, p.maxLevel[i], covBuf[i][:0])
		p.sumSigns(i, covBuf[i], sums.plane(i, 0))
	}
	for inst := 0; inst < p.cfg.Instances; inst++ {
		prod := sign
		for i := 0; i < d; i++ {
			prod *= sums.plane(i, 0)[inst]
		}
		dst[inst] += prod
	}
}

// InsertAll bulk-loads hyper-rectangles, sharding across objects as
// JoinSketch.InsertAll does.
func (s *BoxSketch) InsertAll(rects []geo.HyperRect) error {
	for _, r := range rects {
		if err := s.plan.checkRect(r); err != nil {
			return err
		}
	}
	p := s.plan
	shardBulk(len(rects), s.counters, func(start, end int, dst []int64) {
		covBuf := make([][]uint64, p.cfg.Dims)
		sums := newLetterSums(p.cfg.Dims, 1, p.cfg.Instances)
		for idx := start; idx < end; idx++ {
			s.apply(rects[idx], +1, dst, covBuf, sums)
		}
	})
	s.count += int64(len(rects))
	return nil
}

// Merge adds the counters of other into s. Both sketches must come from the
// same plan.
func (s *BoxSketch) Merge(other *BoxSketch) error {
	return mergeSketch(s.plan, other.plan, s.counters, other.counters, &s.count, other.count)
}

// EstimatePointInBox estimates the number of (point, box) pairs with the
// point inside the box: Z = X_E * Y_I per instance, boosted (Lemmas 7-8).
// Both sketches must come from the same plan.
func EstimatePointInBox(pts *PointSketch, boxes *BoxSketch) (Estimate, error) {
	if !samePlan(pts.plan, boxes.plan) {
		return Estimate{}, fmt.Errorf("core: sketches come from different plans")
	}
	p := pts.plan
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
