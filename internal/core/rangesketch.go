package core

import (
	"fmt"

	"repro/geo"
)

// RangeSketch implements the optimized range-query estimator of Section 6.4
// (Lemma 9). In one dimension the data-side sketches are X_I (interval
// covers) and X_U (upper-endpoint covers); for a query q = [u, v],
// Z = xi-bar[u,v] * X_U + xi-bar[v] * X_I: an interval [a, b] is selected
// iff its upper endpoint lies in [u, v] XOR v lies in [a, b] - mutually
// exclusive and exhaustive events under Assumption 1. The d-dimensional
// generalization keeps one counter per letter string w in {I, U}^d (bit
// set = U) and pairs data letter U with the query's interval cover and
// data letter I with the point cover of the query's upper endpoint.
//
// As with JoinSketch, callers that cannot guarantee Assumption 1 against
// their query workload apply the endpoint transformation: data inserted
// with geo.TransformKeepRect, queries shrunk with geo.TransformShrinkRect
// (the public spatial package's default).
type RangeSketch struct {
	plan     *Plan
	counters []int64 // [instance * 2^d + w]
	count    int64
	buf      *coverBuf
	sums     *letterSums
}

// NewRangeSketch returns an empty range-query sketch.
func (p *Plan) NewRangeSketch() *RangeSketch {
	return &RangeSketch{
		plan:     p,
		counters: make([]int64, p.cfg.Instances<<uint(p.cfg.Dims)),
		buf:      newCoverBuf(p.cfg.Dims),
		sums:     newLetterSums(p.cfg.Dims, 2, p.cfg.Instances),
	}
}

// Plan returns the plan the sketch was built from.
func (s *RangeSketch) Plan() *Plan { return s.plan }

// Count returns the number of objects summarized.
func (s *RangeSketch) Count() int64 { return s.count }

// Insert adds a hyper-rectangle to the sketch.
func (s *RangeSketch) Insert(rect geo.HyperRect) error { return s.update(rect, +1) }

// Delete removes a previously inserted hyper-rectangle.
func (s *RangeSketch) Delete(rect geo.HyperRect) error { return s.update(rect, -1) }

func (s *RangeSketch) update(rect geo.HyperRect, sign int64) error {
	if err := s.plan.checkRect(rect); err != nil {
		return err
	}
	s.buf.load(s.plan, rect)
	s.applyCovers(s.buf, sign, s.counters, s.sums)
	s.count += sign
	return nil
}

// applyCovers folds one object's covers into dst, id-major as in
// JoinSketch.applyCovers; the letter planes here are I (interval cover) and
// U (upper-endpoint cover).
func (s *RangeSketch) applyCovers(buf *coverBuf, sign int64, dst []int64, sums *letterSums) {
	p := s.plan
	d := p.cfg.Dims
	inst := p.cfg.Instances
	nw := 1 << uint(d)
	sums.reset()
	for i := 0; i < d; i++ {
		p.sumSigns(i, buf.cover[i], sums.plane(i, 0))
		p.sumSigns(i, buf.ptHi[i], sums.plane(i, 1))
	}
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

// InsertAll bulk-loads hyper-rectangles, validating all of them first and
// sharding across objects exactly as JoinSketch.InsertAll does.
func (s *RangeSketch) InsertAll(rects []geo.HyperRect) error {
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

// Merge adds the counters of other into s. Both sketches must come from the
// same plan; merging the sketches of disjoint streams is equivalent to
// sketching their union.
func (s *RangeSketch) Merge(other *RangeSketch) error {
	return mergeSketch(s.plan, other.plan, s.counters, other.counters, &s.count, other.count)
}

// EstimateRange estimates |Q(q, R)|, the number of summarized objects
// overlapping the query hyper-rectangle q (Definition 3), per Lemma 9 and
// its d-dimensional generalization. The query must live in the same
// (possibly transformed) domain as the inserted data.
func (s *RangeSketch) EstimateRange(q geo.HyperRect) (Estimate, error) {
	sc := s.plan.GetScratch()
	defer s.plan.PutScratch(sc)
	return s.EstimateRangeWith(q, sc)
}

// EstimateRangeWith is EstimateRange with caller-provided scratch, the
// batched-query fast path: one scratch (from the sketch plan's pool) serves
// a whole batch of queries with no per-query allocation beyond the returned
// Estimate's GroupMeans.
func (s *RangeSketch) EstimateRangeWith(q geo.HyperRect, sc *EstScratch) (Estimate, error) {
	p := s.plan
	if err := p.checkRect(q); err != nil {
		return Estimate{}, fmt.Errorf("core: bad range query: %w", err)
	}
	d := p.cfg.Dims
	nw := 1 << uint(d)
	// Query-side values per dimension: the interval cover of q (pairs with
	// data letter U) and the point cover of q's upper endpoint (pairs with
	// data letter I), batched id-major like the update path.
	qb, qv := sc.queryCovers(p)
	qb.load(p, q)
	qv.reset()
	var lp [MaxDims][2][]int64
	for i := 0; i < d; i++ {
		p.sumSigns(i, qb.ptHi[i], qv.plane(i, 0))  // pairs with data I
		p.sumSigns(i, qb.cover[i], qv.plane(i, 1)) // pairs with data U
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
