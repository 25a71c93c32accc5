package core

import (
	"fmt"
	"math/bits"

	"repro/geo"
)

// Kind names a sketch kind. Its value is the kind's SPK1 code, and its
// row of letterTable says which dyadic ids feed each of its letters.
type Kind uint32

// The five sketch kinds, numbered by their SPK1 codes.
const (
	// KindJoin is the {I,E}^d sketch set of Sections 3.1-3.2, read by
	// EstimateJoin (Theorems 1-3) and EstimateSelfJoin. Its estimators
	// assume Assumption 1 (no endpoints in common between the joined
	// relations): callers that cannot guarantee it apply the endpoint
	// transformation of Section 5.2 (geo.TransformKeepRect /
	// geo.TransformShrinkRect) before inserting, or use KindCE.
	KindJoin Kind = 1 + iota
	// KindCE is the common-endpoint {I,E,L,U}^d sketch set of Appendices
	// B.1 and C, read by EstimateJoinCE and EstimateJoinExtCE: the L and U
	// letters count coinciding endpoints explicitly, so it needs no
	// endpoint transformation.
	KindCE
	// KindPoint is the point sketch X_E of Section 6.3 (Lemmas 7-8): one
	// counter per instance over points, read by EstimatePointInBox.
	KindPoint
	// KindBox is the box sketch Y_I of Section 6.3 (Lemmas 7-8): one
	// counter per instance over hyper-rectangles, read by
	// EstimatePointInBox.
	KindBox
	// KindRange is the {I,U}^d sketch set of the range-query estimator of
	// Section 6.4 (Lemma 9), read by EstimateRange. Like KindJoin it
	// assumes no shared endpoints with the queries: data inserted with
	// geo.TransformKeepRect, queries shrunk with geo.TransformShrinkRect.
	KindRange
)

// source is one set of dyadic ids that an object's interval [lo, hi] in
// one dimension yields; a letter reads the union of its sources.
type source uint8

const (
	srcCover   source = 1 << iota // the canonical cover of [lo, hi]
	srcPtLo                       // the point cover of lo (E)
	srcPtHi                       // the point cover of hi (E)
	srcLeafLo                     // the leaf of lo
	srcLeafHi                     // the leaf of hi
	numSources = iota
)

// letterTable is the paper's atomic sketches as one table. A sketch of a
// kind with L letters keeps, per instance, L^d counters: counter
// inst*L^d + w holds, summed over the objects, the product over
// dimensions i of the xi-sum of instance inst over the ids of letter
// digit_i(w) in dimension i, where digit i of w in base L is dimension
// i's letter. L is 1, 2 or 4, so a digit is a bit field.
var letterTable = [...]struct {
	name    string
	points  bool     // takes points (lo = hi = the coordinate); else hyper-rectangles
	letters []source // in digit order
}{
	KindJoin:  {"join", false, []source{srcCover, srcPtLo | srcPtHi}},                                  // I, E
	KindCE:    {"common-endpoint", false, []source{srcCover, srcPtLo | srcPtHi, srcLeafLo, srcLeafHi}}, // I, E, L, U
	KindPoint: {"point", true, []source{srcPtLo}},                                                      // E
	KindBox:   {"box", false, []source{srcCover}},                                                      // I
	KindRange: {"range", false, []source{srcCover, srcPtHi}},                                           // I, U
}

// rangeQueryLetters are the query side of EstimateRange: letter 0, the
// point cover of the query's upper end, pairs with data letter I, and
// letter 1, the query's interval cover, with data letter U.
var rangeQueryLetters = []source{srcPtHi, srcCover}

func (k Kind) valid() bool { return k >= KindJoin && k <= KindRange }

// String returns the kind's name, for error messages.
func (k Kind) String() string {
	if k.valid() {
		return letterTable[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint32(k))
}

// countersPerInstance returns L^d, the counters one instance of the kind
// keeps over dims dimensions.
func (k Kind) countersPerInstance(dims int) int {
	return 1 << (bits.TrailingZeros(uint(len(letterTable[k].letters))) * dims)
}

// Sketch is the synopsis of one relation under one kind of letterTable:
// per instance, one int64 counter per letter string. Every kind supports
// inserts and deletes (sketches are linear projections, so deletion is
// exact: Section 4.1.5), one-pass bulk loads and merges, and is
// deterministic in its plan's seed.
//
// A Sketch is not safe for concurrent mutation; InsertAll parallelizes a
// bulk load internally. It holds only its counters: updates borrow their
// scratch from the plan (see EstScratch).
type Sketch struct {
	plan     *Plan
	kind     Kind
	counters []int64 // [instance * L^d + w]
	count    int64   // objects summarized: inserts minus deletes
}

// NewSketch returns an empty sketch of kind k on the plan. It panics on
// an unknown kind.
func (p *Plan) NewSketch(k Kind) *Sketch {
	return &Sketch{plan: p, kind: k, counters: make([]int64, p.cfg.Instances*k.countersPerInstance(p.cfg.Dims))}
}

// Plan returns the plan the sketch was built from.
func (s *Sketch) Plan() *Plan { return s.plan }

// Count returns the current number of objects summarized (inserts minus
// deletes), the denominator of selectivity.
func (s *Sketch) Count() int64 { return s.count }

// Counter returns the counter of one instance's letter string w (see
// letterTable). Exposed for tests and diagnostics.
func (s *Sketch) Counter(instance, w int) int64 {
	return s.counters[instance*s.kind.countersPerInstance(s.plan.cfg.Dims)+w]
}

// Insert adds a hyper-rectangle to a sketch of any kind but KindPoint.
func (s *Sketch) Insert(rect geo.HyperRect) error { return s.update(rect, nil, +1) }

// Delete removes a previously inserted hyper-rectangle.
func (s *Sketch) Delete(rect geo.HyperRect) error { return s.update(rect, nil, -1) }

// InsertPoint adds a point to a KindPoint sketch.
func (s *Sketch) InsertPoint(pt geo.Point) error { return s.update(nil, pt, +1) }

// DeletePoint removes a previously inserted point from a KindPoint
// sketch.
func (s *Sketch) DeletePoint(pt geo.Point) error { return s.update(nil, pt, -1) }

// check validates one object - rect, or pt when rect is nil - against the
// kind's input and the plan's domains.
func (s *Sketch) check(rect geo.HyperRect, pt geo.Point) error {
	switch points := letterTable[s.kind].points; {
	case points && rect != nil:
		return fmt.Errorf("core: %v sketches take points", s.kind)
	case !points && rect == nil:
		return fmt.Errorf("core: %v sketches take hyper-rectangles", s.kind)
	case points:
		return s.plan.checkPoint(pt)
	}
	return s.plan.checkRect(rect)
}

func (s *Sketch) update(rect geo.HyperRect, pt geo.Point, sign int64) error {
	if err := s.check(rect, pt); err != nil {
		return err
	}
	sc := s.plan.GetScratch()
	s.apply(sc, rect, pt, sign, s.counters)
	s.plan.PutScratch(sc)
	s.count += sign
	return nil
}

// apply folds one checked object into dst with the given sign.
func (s *Sketch) apply(sc *EstScratch, rect geo.HyperRect, pt geo.Point, sign int64, dst []int64) {
	letters := letterTable[s.kind].letters
	b, sums := sc.letterBufs(s.plan, len(letters))
	s.plan.sumLetters(letters, rect, pt, b, sums)
	fold(dst, sums, s.plan.cfg.Dims, s.plan.cfg.Instances, sign)
}

// InsertAll bulk-loads hyper-rectangles, validating all of them first and
// parallelizing across objects (see shardBulk). The result is
// bit-identical to repeated Insert calls.
func (s *Sketch) InsertAll(rects []geo.HyperRect) error { return s.insertAll(rects, nil) }

// InsertPoints bulk-loads points into a KindPoint sketch, as InsertAll
// does hyper-rectangles.
func (s *Sketch) InsertPoints(pts []geo.Point) error { return s.insertAll(nil, pts) }

// insertAll bulk-loads rects, or pts when rects is nil. Each bulk worker
// borrows one scratch for its whole share.
func (s *Sketch) insertAll(rects []geo.HyperRect, pts []geo.Point) error {
	at := func(k int) (geo.HyperRect, geo.Point) {
		if rects != nil {
			return rects[k], nil
		}
		return nil, pts[k]
	}
	n := max(len(rects), len(pts))
	for k := 0; k < n; k++ {
		if err := s.check(at(k)); err != nil {
			return err
		}
	}
	shardBulk(n, s.counters, func(start, end int, dst []int64) {
		sc := s.plan.GetScratch()
		defer s.plan.PutScratch(sc)
		for k := start; k < end; k++ {
			rect, pt := at(k)
			s.apply(sc, rect, pt, +1, dst)
		}
	})
	s.count += int64(n)
	return nil
}

// Merge adds the counters of other into s. Both sketches must be of one
// kind and come from the same plan. Merging the sketches of two disjoint
// streams is equivalent to sketching their union - the linearity that
// makes sketches distributable.
func (s *Sketch) Merge(other *Sketch) error {
	if other.kind != s.kind {
		return fmt.Errorf("core: cannot merge a %v sketch into a %v sketch", other.kind, s.kind)
	}
	if !samePlan(s.plan, other.plan) {
		return fmt.Errorf("core: cannot merge sketches from different plans")
	}
	for i, v := range other.counters {
		s.counters[i] += v
	}
	s.count += other.count
	return nil
}

// coverBuf holds one object's id lists, indexed by a source's bit
// position and then by dimension, reused across objects. Covers do not
// depend on the instance, so each is computed once per object.
type coverBuf [numSources][][]uint64

func newCoverBuf(d int) *coverBuf {
	b := new(coverBuf)
	for j := range b {
		b[j] = make([][]uint64, d)
	}
	return b
}

// letterSums is the scratch of one batched counter update: per
// (dimension, letter) a contiguous plane of Instances partial sums,
// filled id-major by Plan.sumSigns and then folded into the counters
// instance by instance.
type letterSums struct {
	letters, inst int
	planes        []int64 // [dim*letters + letter][inst]
}

// size shapes the planes for the given letters per dimension, reusing
// their storage.
func (ls *letterSums) size(dims, letters, inst int) {
	n := dims * letters * inst
	if cap(ls.planes) < n {
		ls.planes = make([]int64, n)
	}
	ls.planes, ls.letters, ls.inst = ls.planes[:n], letters, inst
}

// plane returns the (dim, letter) accumulator plane.
func (ls *letterSums) plane(dim, letter int) []int64 {
	off := (dim*ls.letters + letter) * ls.inst
	return ls.planes[off : off+ls.inst]
}

// sumLetters loads into b the ids that letters read of rect - or of pt
// (lo = hi = the coordinate) when rect is nil - and fills sums with one
// plane per (dimension, letter): every instance's xi-sum over the ids of
// the letter's sources. The loop is id-major: each id is summed once over
// every instance of its dimension (Plan.sumSigns).
func (p *Plan) sumLetters(letters []source, rect geo.HyperRect, pt geo.Point, b *coverBuf, sums *letterSums) {
	var need source
	for _, l := range letters {
		need |= l
	}
	clear(sums.planes)
	for i, dom := range p.doms {
		var lo, hi uint64
		if rect != nil {
			lo, hi = rect[i].Lo, rect[i].Hi
		} else {
			lo, hi = pt[i], pt[i]
		}
		ml := p.maxLevel[i]
		for m := need; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(uint8(m))
			ids := b[j][i][:0]
			switch source(1) << j {
			case srcCover:
				ids = dom.CoverMax(lo, hi, ml, ids)
			case srcPtLo:
				ids = dom.PointCoverMax(lo, ml, ids)
			case srcPtHi:
				ids = dom.PointCoverMax(hi, ml, ids)
			case srcLeafLo:
				ids = append(ids, dom.LeafID(lo))
			case srcLeafHi:
				ids = append(ids, dom.LeafID(hi))
			}
			b[j][i] = ids
		}
		for l, src := range letters {
			acc := sums.plane(i, l)
			for m := src; m != 0; m &= m - 1 {
				p.sumSigns(i, b[bits.TrailingZeros8(uint8(m))][i], acc)
			}
		}
	}
}

// fold adds sign * prod_i plane(i, digit_i(w)) into counter inst*L^d + w
// of dst for every instance, L = sums.letters. Two letters at d <= 2 -
// the joins and range queries of one and two dimensions - are unrolled.
func fold(dst []int64, sums *letterSums, d, inst int, sign int64) {
	L := sums.letters
	switch {
	case L == 2 && d == 1:
		iS, eS := sums.plane(0, 0), sums.plane(0, 1)
		for k := 0; k < inst; k++ {
			dst[2*k] += sign * iS[k]
			dst[2*k+1] += sign * eS[k]
		}
	case L == 2 && d == 2:
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
		var lp [MaxDims][4][]int64
		for i := 0; i < d; i++ {
			for l := 0; l < L; l++ {
				lp[i][l] = sums.plane(i, l)
			}
		}
		shift, mask := uint(bits.TrailingZeros(uint(L))), L-1
		nw := 1 << (shift * uint(d))
		for k := 0; k < inst; k++ {
			base := k * nw
			for w := 0; w < nw; w++ {
				prod := sign
				for i := 0; i < d; i++ {
					prod *= lp[i][w>>(shift*uint(i))&mask][k]
				}
				dst[base+w] += prod
			}
		}
	}
}
