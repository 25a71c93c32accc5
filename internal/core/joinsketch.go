package core

import (
	"fmt"

	"repro/geo"
)

// JoinSketch is the synopsis of one relation under the {I,E}^d dyadic
// atomic sketch set of Sections 3.1-3.2: per instance, 2^d integer counters
// X_w indexed by the bitmask of the letter string w (bit i set = letter E
// in dimension i; bit clear = letter I). For d = 1 these are (X_I, X_E) of
// Equation 4; for d = 2 they are (X_II, X_IE, X_EI, X_EE).
//
// The estimators assume Assumption 1 (no endpoints in common between the
// joined relations). Callers that cannot guarantee the assumption should
// apply the endpoint transformation of Section 5.2 (geo.TransformKeepRect /
// geo.TransformShrinkRect) before inserting, as the public spatial package
// does, or use CESketch.
//
// A JoinSketch is not safe for concurrent mutation; InsertAll parallelizes
// a bulk load internally.
type JoinSketch struct {
	plan     *Plan
	counters []int64 // [instance * 2^d + w]
	count    int64   // current object cardinality
	buf      *coverBuf
	sums     *letterSums
}

// NewJoinSketch returns an empty sketch of the plan's relation shape.
func (p *Plan) NewJoinSketch() *JoinSketch {
	return &JoinSketch{
		plan:     p,
		counters: make([]int64, p.cfg.Instances<<uint(p.cfg.Dims)),
		buf:      newCoverBuf(p.cfg.Dims),
		sums:     newLetterSums(p.cfg.Dims, 2, p.cfg.Instances),
	}
}

// Plan returns the plan the sketch was built from.
func (s *JoinSketch) Plan() *Plan { return s.plan }

// Count returns the current number of objects summarized (inserts minus
// deletes), the denominator of selectivity.
func (s *JoinSketch) Count() int64 { return s.count }

// Insert adds a hyper-rectangle to the sketch.
func (s *JoinSketch) Insert(rect geo.HyperRect) error { return s.update(rect, +1) }

// Delete removes a previously inserted hyper-rectangle from the sketch
// (sketches are linear projections, so deletion is exact: Section 4.1.5).
func (s *JoinSketch) Delete(rect geo.HyperRect) error { return s.update(rect, -1) }

func (s *JoinSketch) update(rect geo.HyperRect, sign int64) error {
	if err := s.plan.checkRect(rect); err != nil {
		return err
	}
	s.buf.load(s.plan, rect)
	s.applyCovers(s.buf, sign, s.counters, s.sums)
	s.count += sign
	return nil
}

// applyCovers folds one object's covers into dst. The loop order is
// id-major: each dyadic id of each cover is summed once over every instance
// of its dimension (Plan.sumSigns), filling per-letter sum planes that are
// then folded into the 2^d counters of every instance.
func (s *JoinSketch) applyCovers(buf *coverBuf, sign int64, dst []int64, sums *letterSums) {
	p := s.plan
	d := p.cfg.Dims
	inst := p.cfg.Instances
	nw := 1 << uint(d)
	sums.reset()
	for i := 0; i < d; i++ {
		p.sumSigns(i, buf.cover[i], sums.plane(i, 0))
		eAcc := sums.plane(i, 1)
		p.sumSigns(i, buf.ptLo[i], eAcc)
		p.sumSigns(i, buf.ptHi[i], eAcc)
	}
	switch d {
	case 1:
		iS, eS := sums.plane(0, 0), sums.plane(0, 1)
		for k := 0; k < inst; k++ {
			dst[2*k] += sign * iS[k]
			dst[2*k+1] += sign * eS[k]
		}
	case 2:
		i0, e0 := sums.plane(0, 0), sums.plane(0, 1)
		i1, e1 := sums.plane(1, 0), sums.plane(1, 1)
		for k := 0; k < inst; k++ {
			a, b, c, e := sign*i0[k], sign*e0[k], i1[k], e1[k]
			base := 4 * k
			dst[base] += a * c
			dst[base+1] += b * c
			dst[base+2] += a * e
			dst[base+3] += b * e
		}
	default:
		var lp [MaxDims][2][]int64
		for i := 0; i < d; i++ {
			lp[i][0], lp[i][1] = sums.plane(i, 0), sums.plane(i, 1)
		}
		for k := 0; k < inst; k++ {
			base := k * nw
			for w := 0; w < nw; w++ {
				prod := sign
				for i := 0; i < d; i++ {
					prod *= lp[i][(w>>uint(i))&1][k]
				}
				dst[base+w] += prod
			}
		}
	}
}

// InsertAll bulk-loads a slice of hyper-rectangles, validating all of them
// first and parallelizing across objects: each worker folds a contiguous
// share of the input into a private counter shard, and the shards are
// merged by addition (exact, because sketches are linear projections). It
// is the fast path for building a sketch from stored data; the resulting
// sketch is bit-identical to one built by repeated Insert calls.
func (s *JoinSketch) InsertAll(rects []geo.HyperRect) error {
	for _, r := range rects {
		if err := s.plan.checkRect(r); err != nil {
			return err
		}
	}
	p := s.plan
	shardBulk(len(rects), s.counters, func(start, end int, dst []int64) {
		buf := newCoverBuf(p.cfg.Dims)
		sums := newLetterSums(p.cfg.Dims, 2, p.cfg.Instances)
		for idx := start; idx < end; idx++ {
			buf.load(p, rects[idx])
			s.applyCovers(buf, +1, dst, sums)
		}
	})
	s.count += int64(len(rects))
	return nil
}

// Reset zeroes the sketch in place.
func (s *JoinSketch) Reset() {
	for i := range s.counters {
		s.counters[i] = 0
	}
	s.count = 0
}

// Clone returns an independent deep copy sharing the (immutable) plan.
func (s *JoinSketch) Clone() *JoinSketch {
	c := s.plan.NewJoinSketch()
	copy(c.counters, s.counters)
	c.count = s.count
	return c
}

// Merge adds the counters of other into s. Both sketches must come from the
// same plan. Merging the sketches of two disjoint streams is equivalent to
// sketching their union - the linearity that makes sketches distributable.
func (s *JoinSketch) Merge(other *JoinSketch) error {
	return mergeSketch(s.plan, other.plan, s.counters, other.counters, &s.count, other.count)
}

// Counter returns the X_w counter of one instance (w is the E-letter
// bitmask). Exposed for tests and diagnostics.
func (s *JoinSketch) Counter(instance, w int) int64 {
	d := s.plan.cfg.Dims
	return s.counters[instance<<uint(d)+w]
}

// EstimateJoin estimates |R join_o S| from the sketches of R and S per
// Theorems 1-3: each instance contributes Z = 2^-d * sum_w X_w * Y_w-bar,
// and instances are boosted by the median-of-means of Section 2.3.
// Both sketches must come from the same plan.
func EstimateJoin(x, y *JoinSketch) (Estimate, error) {
	if !samePlan(x.plan, y.plan) {
		return Estimate{}, fmt.Errorf("core: sketches come from different plans")
	}
	p := x.plan
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

// EstimateSelfJoin estimates SJ(R) = sum_w SJ(X_w) from the sketch's own
// counters: E[X_w^2] = SJ(X_w) - the original self-join-size use of AMS
// sketches (Section 2.2) turned inward. This lets a deployment feed the
// Theorem 1 planner without any offline pass over the data: the synopsis
// estimates its own variance budget.
func (s *JoinSketch) EstimateSelfJoin() Estimate {
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
	return boostWith(zs, p.cfg.Groups, sc.medianBuf(p))
}

// SelfJoinUpperBound returns a cheap upper bound on SJ(R) =
// sum_w SJ(X_w) derived from the triangle inequality: each inserted object
// contributes at most (prod_i |cover_i| for the I letters) * ... per w, so
// SJ(X_w) <= (sum over objects of its cover-product for w)^2. The bound is
// loose but needs no extra state; exact values come from
// internal/exact.SelfJoinSizes.
func (s *JoinSketch) SelfJoinUpperBound() float64 {
	// With only counters available the best generic bound is
	// (sum_w max-cover-product * count)^2; keep it simple and documented.
	d := s.plan.cfg.Dims
	perObj := 1.0
	for i := 0; i < d; i++ {
		h := float64(s.plan.maxLevel[i])
		c := 2*h + 2 // interval cover + slack
		e := 2 * (h + 1)
		perObj *= c + e
	}
	n := float64(s.count)
	return perObj * perObj * n * n
}
