package core

import (
	"bytes"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/geo"
	"repro/internal/dyadic"
)

// memoConfigs span covers that fall wholly inside the memoized levels
// (log 8), straddle them (11, 12, 14), mostly miss them (20, and a cap
// below every memoized level), an instance count that is not a multiple
// of 64, and one whose rows are too wide for 11 levels to fit in 64 KB.
// 1 and 257 instances are not multiples of four, so the vector kernel's
// scalar tail runs; at 257 the second dimension's families also start at
// a bank slot that is not a multiple of four. The 3-d and 4-d
// configurations take every kind past the unrolled d <= 2 folds, the 4-d
// one under a mix of level caps.
var memoConfigs = []Config{
	{Dims: 2, LogDomain: []int{8, 8}, Instances: 256, Groups: 4},
	{Dims: 2, LogDomain: []int{11, 11}, Instances: 256, Groups: 4},
	{Dims: 2, LogDomain: []int{12, 12}, Instances: 100, Groups: 4},
	{Dims: 2, LogDomain: []int{14, 14}, Instances: 256, Groups: 4},
	{Dims: 2, LogDomain: []int{14, 12}, MaxLevel: []int{8, 3}, Instances: 256, Groups: 4},
	{Dims: 2, LogDomain: []int{20, 20}, Instances: 256, Groups: 4},
	{Dims: 2, LogDomain: []int{20, 14}, MaxLevel: []int{6, -1}, Instances: 256, Groups: 4},
	{Dims: 1, LogDomain: []int{14}, Instances: 1024, Groups: 8},
	{Dims: 2, LogDomain: []int{16, 16}, Instances: 1, Groups: 1},
	{Dims: 2, LogDomain: []int{14, 14}, Instances: 257, Groups: 1},
	{Dims: 3, LogDomain: []int{10, 12, 9}, Instances: 64, Groups: 4},
	{Dims: 4, LogDomain: []int{8, 11, 6, 12}, MaxLevel: []int{5, -1, 6, 3}, Instances: 72, Groups: 4},
}

// TestSignPlaneLimits pins how many levels fit in one dimension's 64 KB.
func TestSignPlaneLimits(t *testing.T) {
	for _, tc := range []struct {
		log, inst int
		limit     uint64
	}{
		{8, 256, 1 << 9},   // the whole domain
		{14, 256, 1 << 11}, // 2048 rows of 32 bytes
		{12, 100, 1 << 12}, // 16-byte rows
		{14, 1024, 1 << 9}, // 128-byte rows
		{14, 1 << 20, 0},   // a row wider than the budget
	} {
		var pl signPlane
		pl.init(nil, 0, tc.inst, tc.log)
		if pl.limit != tc.limit {
			t.Errorf("log %d, %d instances: limit %d, want %d", tc.log, tc.inst, pl.limit, tc.limit)
		}
		if size := pl.limit * uint64(pl.words) * 8; size > planeBytes {
			t.Errorf("log %d, %d instances: plane of %d bytes", tc.log, tc.inst, size)
		}
	}
}

// refSums returns, per instance, the sum of xi over ids of the (inst, dim)
// family, from the scalar reference xi.Family.
func refSums(p *Plan, dim int, lists ...[]uint64) []int64 {
	out := make([]int64, p.cfg.Instances)
	for inst := range out {
		f := p.family(inst, dim)
		for _, ids := range lists {
			out[inst] += f.SumSigns(ids)
		}
	}
	return out
}

// refFold adds sign * prod_i letters[i][digit_i(w)][inst] into counters,
// where digit_i(w) is digit i of w in base len(letters[i]) - the letter
// encoding every sketch kind uses.
func refFold(counters []int64, letters [][][]int64, sign int64) {
	base := len(letters[0])
	nw := 1
	for range letters {
		nw *= base
	}
	inst := len(letters[0][0])
	for k := 0; k < inst; k++ {
		for w := 0; w < nw; w++ {
			prod, ww := sign, w
			for i := range letters {
				prod *= letters[i][ww%base][k]
				ww /= base
			}
			counters[k*nw+w] += prod
		}
	}
}

// randRect draws a rectangle mixing short and long sides.
func randRect(r *rand.Rand, p *Plan) geo.HyperRect {
	rect := make(geo.HyperRect, p.cfg.Dims)
	for i := range rect {
		n := p.doms[i].Size()
		lo := r.Uint64N(n)
		span := r.Uint64N(n - lo)
		if r.IntN(2) == 0 {
			span = min(span, r.Uint64N(16))
		}
		rect[i] = geo.Interval{Lo: lo, Hi: lo + span}
	}
	return rect
}

func randPoint(r *rand.Rand, p *Plan) geo.Point {
	pt := make(geo.Point, p.cfg.Dims)
	for i := range pt {
		pt[i] = r.Uint64N(p.doms[i].Size())
	}
	return pt
}

// TestSignPlanesMatchFamily: after a seeded run of inserts and deletes,
// every counter of every sketch kind - and every range estimate - equals
// one recomputed from xi.Family over the same covers, so the memoized
// rows change no bit.
func TestSignPlanesMatchFamily(t *testing.T) {
	for ci, cfg := range memoConfigs {
		cfg.Seed = uint64(1000 + ci)
		p := MustPlan(cfg)
		r := rand.New(rand.NewPCG(uint64(ci), 7))
		d := cfg.Dims
		sks := make([]*Sketch, len(allKinds))
		want := make([][]int64, len(allKinds))
		for k, kind := range allKinds {
			sks[k] = p.NewSketch(kind)
			want[k] = make([]int64, len(sks[k].counters))
		}
		rng := sks[len(sks)-1] // allKinds ends with KindRange
		wantRange := want[len(want)-1]

		var rects []geo.HyperRect
		var points []geo.Point
		for step := 0; step < 40; step++ {
			sign := int64(1)
			rect, pt := randRect(r, p), randPoint(r, p)
			if step%3 == 2 {
				// Delete an earlier object instead.
				sign = -1
				k := r.IntN(len(rects))
				rect, pt = rects[k], points[k]
				rects = append(rects[:k], rects[k+1:]...)
				points = append(points[:k], points[k+1:]...)
			} else {
				rects, points = append(rects, rect), append(points, pt)
			}
			for k, s := range sks {
				if err := update(s, rect, pt, sign); err != nil {
					t.Fatal(err)
				}
				refFold(want[k], refLetters(p, s.kind, rect, pt), sign)
			}
		}
		for k, s := range sks {
			if !reflect.DeepEqual(s.counters, want[k]) {
				t.Fatalf("config %d (%v): %v counters differ from the xi.Family reference", ci, cfg, s.kind)
			}
		}

		// The query side of EstimateRange: the interval cover of q pairs
		// with data letter U, the point cover of q's upper end with I.
		for k := 0; k < 8; k++ {
			q := randRect(r, p)
			got, err := rng.EstimateRange(q)
			if err != nil {
				t.Fatal(err)
			}
			qL := make([][][]int64, d)
			for i, iv := range q {
				dom, ml := p.doms[i], p.maxLevel[i]
				qL[i] = [][]int64{
					refSums(p, i, dom.PointCoverMax(iv.Hi, ml, nil)),
					refSums(p, i, dom.CoverMax(iv.Lo, iv.Hi, ml, nil)),
				}
			}
			zs := make([]float64, cfg.Instances)
			nw := 1 << uint(d)
			for inst := range zs {
				for w := 0; w < nw; w++ {
					prod := int64(1)
					for i := 0; i < d; i++ {
						prod *= qL[i][(w>>uint(i))&1][inst]
					}
					zs[inst] += float64(prod) * float64(wantRange[inst*nw+w])
				}
			}
			want := boostWith(zs, cfg.Groups, make([]float64, cfg.Groups))
			if got.Value != want.Value || got.Mean != want.Mean {
				t.Fatalf("config %d: EstimateRange(%v) = %v/%v, reference %v/%v", ci, q, got.Value, got.Mean, want.Value, want.Mean)
			}
		}
	}
}

var seeds atomic.Uint64

// freshSeed returns a seed no other test run in this process has used, so
// a test (also under -count) starts from empty sign planes rather than
// the rows an earlier run's still-live plan filled.
func freshSeed() uint64 { return 1<<32 + seeds.Add(1) }

// readyRows counts the filled rows of a plan's sign planes.
func readyRows(p *Plan) int {
	n := 0
	for i := range p.planes {
		for j := range p.planes[i].ready {
			n += bits.OnesCount64(p.planes[i].ready[j].Load())
		}
	}
	return n
}

// update inserts (sign +1) or deletes (sign -1) one object: pt for a
// KindPoint sketch, rect for every other kind.
func update(s *Sketch, rect geo.HyperRect, pt geo.Point, sign int64) error {
	switch {
	case s.kind == KindPoint && sign > 0:
		return s.InsertPoint(pt)
	case s.kind == KindPoint:
		return s.DeletePoint(pt)
	case sign > 0:
		return s.Insert(rect)
	}
	return s.Delete(rect)
}

// refLetters returns one object's per-dimension letter sums for a sketch
// kind, from the scalar reference xi.Family: rect feeds every kind but
// the point kind, which reads pt.
func refLetters(p *Plan, kind Kind, rect geo.HyperRect, pt geo.Point) [][][]int64 {
	letters := make([][][]int64, p.cfg.Dims)
	for i := range letters {
		dom, ml := p.doms[i], p.maxLevel[i]
		if kind == KindPoint {
			letters[i] = [][]int64{refSums(p, i, dom.PointCoverMax(pt[i], ml, nil))}
			continue
		}
		iv := rect[i]
		cover := dom.CoverMax(iv.Lo, iv.Hi, ml, nil)
		ptLo, ptHi := dom.PointCoverMax(iv.Lo, ml, nil), dom.PointCoverMax(iv.Hi, ml, nil)
		I := refSums(p, i, cover)
		switch kind {
		case KindJoin:
			letters[i] = [][]int64{I, refSums(p, i, ptLo, ptHi)}
		case KindCE:
			letters[i] = [][]int64{I, refSums(p, i, ptLo, ptHi),
				refSums(p, i, []uint64{dom.LeafID(iv.Lo)}), refSums(p, i, []uint64{dom.LeafID(iv.Hi)})}
		case KindRange:
			letters[i] = [][]int64{I, refSums(p, i, ptHi)}
		case KindBox:
			letters[i] = [][]int64{I}
		}
	}
	return letters
}

// TestSignPlaneAllocs: a warm insert allocates nothing, for every sketch
// kind at d = 1, 2 and 4, also while it fills rows; only each plane's
// first use allocates.
func TestSignPlaneAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{Dims: 1, LogDomain: []int{14}, Instances: 1024, Groups: 8},
		{Dims: 2, LogDomain: []int{14, 14}, Instances: 1024, Groups: 8},
		{Dims: 4, LogDomain: []int{8, 9, 10, 11}, Instances: 128, Groups: 8},
	} {
		for _, kind := range allKinds {
			cfg.Seed = freshSeed()
			p := MustPlan(cfg)
			s := p.NewSketch(kind)
			r := rand.New(rand.NewPCG(3, 3))
			rects := make([]geo.HyperRect, 512)
			pts := make([]geo.Point, len(rects))
			for i := range rects {
				rects[i], pts[i] = randRect(r, p), randPoint(r, p)
			}
			i := 0
			insert := func() {
				if err := update(s, rects[i%len(rects)], pts[i%len(pts)], +1); err != nil {
					t.Fatal(err)
				}
				i++
			}
			insert()
			filled := readyRows(p)
			if allocs := testing.AllocsPerRun(100, insert); allocs != 0 {
				t.Errorf("%d-d %v: insert allocates %v times per call while filling rows", cfg.Dims, kind, allocs)
			}
			if readyRows(p) <= filled {
				t.Fatalf("%d-d %v: no rows filled during the measured inserts (%d ready before, %d after)", cfg.Dims, kind, filled, readyRows(p))
			}
			if allocs := testing.AllocsPerRun(len(rects), insert); allocs != 0 {
				t.Errorf("%d-d %v: warm insert allocates %v times per call", cfg.Dims, kind, allocs)
			}
		}
	}
}

// TestPlanInterning: equal configurations share one plan; any differing
// field, including a nil MaxLevel against an explicit full-height one,
// gives a distinct plan whose Config round-trips exactly; and no caller
// can reach the plan's slices.
func TestPlanInterning(t *testing.T) {
	cfg := Config{Dims: 2, LogDomain: []int{10, 12}, Instances: 64, Groups: 4, Seed: 77}
	a, b := MustPlan(cfg), MustPlan(Config{Dims: 2, LogDomain: []int{10, 12}, Instances: 64, Groups: 4, Seed: 77})
	if a != b {
		t.Fatal("equal configurations gave distinct plans")
	}
	reseeded := cfg
	reseeded.Seed++
	full := cfg
	full.MaxLevel = []int{10, 12}
	for _, other := range []Config{reseeded, full} {
		p := MustPlan(other)
		if p == a {
			t.Fatalf("%v shares the plan of %v", other, cfg)
		}
		if got := p.Config(); !reflect.DeepEqual(got, other) {
			t.Fatalf("Config() = %#v, want %#v", got, other)
		}
	}
	if got := a.Config(); got.MaxLevel != nil || !reflect.DeepEqual(got, cfg) {
		t.Fatalf("Config() = %#v, want %#v", got, cfg)
	}

	// Mutating the caller's slices, or the returned ones, changes nothing.
	mine := Config{Dims: 1, LogDomain: []int{9}, MaxLevel: []int{5}, Instances: 8, Groups: 2, Seed: 78}
	p := MustPlan(mine)
	mine.LogDomain[0], mine.MaxLevel[0] = 3, 1
	got := p.Config()
	got.LogDomain[0], got.MaxLevel[0] = 4, 2
	p.Domains()[0] = dyadic.MustNew(3)
	p.MaxLevels()[0] = 0
	if c := p.Config(); c.LogDomain[0] != 9 || c.MaxLevel[0] != 5 || p.doms[0].Log() != 9 || p.maxLevel[0] != 5 {
		t.Fatalf("plan changed through a caller's slice: %#v, domain %d, max level %d", c, p.doms[0].Log(), p.maxLevel[0])
	}
	if MustPlan(Config{Dims: 1, LogDomain: []int{9}, MaxLevel: []int{5}, Instances: 8, Groups: 2, Seed: 78}) != p {
		t.Fatal("the original configuration no longer finds its plan")
	}
}

// TestPlanSharedConcurrent: goroutines insert into separate sketches of
// one configuration, one writer per sketch kind, filling the shared sign
// planes, while others estimate ranges on a sketch of the same plan.
// Counters and marshalled bytes equal a sequential build.
func TestPlanSharedConcurrent(t *testing.T) {
	cfg := Config{Dims: 2, LogDomain: []int{13, 13}, Instances: 192, Groups: 4, Seed: freshSeed()}
	p := MustPlan(cfg)
	r := rand.New(rand.NewPCG(9, 9))
	const perWriter = 60
	writers := len(allKinds)
	rects := make([][]geo.HyperRect, writers)
	pts := make([][]geo.Point, writers)
	for w := range rects {
		for k := 0; k < perWriter; k++ {
			rects[w] = append(rects[w], randRect(r, p))
			pts[w] = append(pts[w], randPoint(r, p))
		}
	}
	queries := []geo.HyperRect{randRect(r, p), randRect(r, p), randRect(r, p)}
	reader := p.NewSketch(KindRange)
	for _, rect := range rects[0] {
		if err := reader.Insert(rect); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]Estimate, len(queries))
	for k, q := range queries {
		var err error
		if want[k], err = reader.EstimateRange(q); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]*Sketch, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w, kind := range allKinds {
		got[w] = p.NewSketch(kind)
		wg.Add(1)
		go func(s *Sketch, rects []geo.HyperRect, pts []geo.Point) {
			defer wg.Done()
			for k := range rects {
				if err := update(s, rects[k], pts[k], +1); err != nil {
					t.Error(err)
					return
				}
			}
		}(got[w], rects[w], pts[w])
	}
	var readers sync.WaitGroup
	for k := 0; k < 2; k++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, q := range queries {
					e, err := reader.EstimateRange(q)
					if err != nil || e.Value != want[i].Value {
						t.Errorf("concurrent EstimateRange = %v, %v; want %v", e.Value, err, want[i].Value)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// The sequential reference evaluates every id with xi.Family.
	for w, kind := range allKinds {
		ref := p.NewSketch(kind)
		for k := range rects[w] {
			refFold(ref.counters, refLetters(p, kind, rects[w][k], pts[w][k]), 1)
			ref.count++
		}
		s := got[w]
		if !reflect.DeepEqual(s.counters, ref.counters) {
			t.Fatalf("%v writer: counters differ from the sequential reference", kind)
		}
		gb, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, rb) {
			t.Fatalf("%v writer: Marshal bytes differ from the sequential reference", kind)
		}
	}
}

// interned reports whether the plan table holds an entry for cfg.
func interned(cfg Config) bool {
	plans.Lock()
	defer plans.Unlock()
	_, ok := plans.m[keyOf(cfg)]
	return ok
}

// TestPlanInternEntryDropped: once every sketch of a configuration is
// unreachable, the collected plan's cleanup removes its table entry.
func TestPlanInternEntryDropped(t *testing.T) {
	cfg := Config{Dims: 1, LogDomain: []int{10}, Instances: 64, Groups: 4, Seed: 0xdead}
	func() {
		s := MustPlan(cfg).NewSketch(KindJoin)
		if err := s.Insert(geo.HyperRect{{Lo: 3, Hi: 700}}); err != nil {
			t.Fatal(err)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := UnmarshalSketch(KindJoin, data)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Plan() != s.Plan() {
			t.Error("a decoded sketch does not share its configuration's plan")
		}
	}()
	if !interned(cfg) {
		t.Fatal("no table entry for a plan just built")
	}
	deadline := time.Now().Add(10 * time.Second)
	for interned(cfg) {
		if time.Now().After(deadline) {
			t.Fatal("table entry still present after every sketch was dropped")
		}
		runtime.GC()
	}
	// The configuration can be planned again afresh.
	if p := MustPlan(cfg); !interned(cfg) || p.Config().Seed != cfg.Seed {
		t.Fatal("re-planning a dropped configuration failed")
	}
}
