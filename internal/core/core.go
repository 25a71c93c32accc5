// Package core implements the paper's contribution: atomic spatial sketches
// over dyadic domains and the boosted cardinality estimators built from
// them (Das, Gehrke, Riedewald, "Approximation Techniques for Spatial
// Data", SIGMOD 2004).
//
// The paper's atomic sketches are one construction: per instance, one
// counter per letter string, each the product over dimensions of xi-sums
// over that letter's dyadic ids. The package has one sketch type, Sketch,
// whose Kind is a row of one letter table (letterTable):
//
//   - KindJoin: {I,E}^d (Sections 3.1-3.2), read by the join estimators
//     of Theorems 1-3 (strict overlap, Assumption 1 or
//     endpoint-transformed inputs);
//   - KindCE: {I,E,L,U}^d (Appendices B.1/C), which handles common
//     endpoints explicitly, read by the strict (Lemma 13) and extended
//     (Definition 4) join estimators;
//   - KindPoint and KindBox: one letter each, the two-sketch estimator of
//     Lemmas 7-8 for epsilon-joins and containment joins;
//   - KindRange: {I,U}^d, the optimized range-query estimator of Lemma 9.
//
// One update path, one fold, one bulk loader, one Merge and one binary
// codec serve every kind. The package also provides boosting (median of
// means, Section 2.3) and the Theorem 1 sizing rules (Plan*, Words*).
//
// All sketches support inserts and deletes, are buildable in one pass, and
// are deterministic in their configuration seed.
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"weak"

	"repro/geo"
	"repro/internal/dyadic"
	"repro/internal/xi"
)

// MaxDims bounds the supported dimensionality. The estimators enumerate
// 2^d (or 4^d) atomic sketches per instance, so very high d is not useful
// (the paper's curse-of-dimensionality discussion, Section 6.1); the bound
// exists to catch configuration mistakes.
const MaxDims = 8

// Config describes a sketch plan: domain geometry, adaptivity, and the
// boosting layout.
type Config struct {
	// Dims is the data dimensionality (1 = intervals, 2 = rectangles, ...).
	Dims int
	// LogDomain[i] is log2 of the coordinate domain size of dimension i.
	// Coordinates inserted into sketches must be < 2^LogDomain[i]. When the
	// endpoint transformation of Section 5.2 is in use, this is the log of
	// the transformed (tripled, padded) domain.
	LogDomain []int
	// MaxLevel[i] caps the dyadic level used by covers in dimension i
	// (Section 6.5). Negative or >= LogDomain[i] means uncapped;
	// 0 degenerates to the standard (non-dyadic) sketches of Section 3.1.
	// A nil slice means uncapped in every dimension.
	MaxLevel []int
	// Instances is the total number of i.i.d. atomic estimator instances
	// (k1*k2 in Section 2.3).
	Instances int
	// Groups is the number of median groups (k2). It must divide Instances.
	Groups int
	// Seed determines every xi-family deterministically.
	Seed uint64
}

// clone returns c with its own copies of the slices (a nil MaxLevel stays
// nil).
func (c Config) clone() Config {
	c.LogDomain = slices.Clone(c.LogDomain)
	c.MaxLevel = slices.Clone(c.MaxLevel)
	return c
}

func (c Config) validate() error {
	if c.Dims < 1 || c.Dims > MaxDims {
		return fmt.Errorf("core: dims %d outside [1, %d]", c.Dims, MaxDims)
	}
	if len(c.LogDomain) != c.Dims {
		return fmt.Errorf("core: got %d log-domain entries for %d dims", len(c.LogDomain), c.Dims)
	}
	for i, h := range c.LogDomain {
		if h < 1 || h > dyadic.MaxLog {
			return fmt.Errorf("core: log domain %d of dim %d outside [1, %d]", h, i, dyadic.MaxLog)
		}
	}
	if c.MaxLevel != nil && len(c.MaxLevel) != c.Dims {
		return fmt.Errorf("core: got %d maxLevel entries for %d dims", len(c.MaxLevel), c.Dims)
	}
	if c.Instances < 1 {
		return fmt.Errorf("core: instances must be >= 1, got %d", c.Instances)
	}
	if c.Groups < 1 || c.Instances%c.Groups != 0 {
		return fmt.Errorf("core: groups %d must be >= 1 and divide instances %d", c.Groups, c.Instances)
	}
	return nil
}

// Plan fixes the random bits of a sketch family: one independent xi-family
// per (instance, dimension). Sketches of the two join inputs must be built
// from the same plan - the estimators correlate X- and Y-sketches through
// shared families, exactly as the paper requires.
//
// The families live in a single xi.Bank: four contiguous coefficient planes
// in dimension-major order (family index dim*Instances + inst), so the
// update kernels can evaluate one dyadic id against every instance of a
// dimension with a single streaming pass (see xi.Bank.SumSignsMany). Each
// dimension also has a sign plane memoizing the signs of its top dyadic
// levels (see signPlane and sumSigns).
//
// A plan is immutable apart from its sign planes and scratch pool, both
// safe for concurrent use, so NewPlan shares one plan among every caller
// asking for the same configuration.
type Plan struct {
	cfg      Config
	doms     []dyadic.Domain
	maxLevel []int
	bank     *xi.Bank    // [dim*Instances + inst]
	planes   []signPlane // per dimension
	scratch  scratchPool // see GetScratch
}

// planKey identifies a configuration in the plan table: every field of
// Config, with a nil MaxLevel distinct from an explicit one so that
// Config() round-trips exactly.
type planKey struct {
	dims, instances, groups int
	seed                    uint64
	logDomain, maxLevel     [MaxDims]int
	capped                  bool
}

func keyOf(cfg Config) planKey {
	k := planKey{dims: cfg.Dims, instances: cfg.Instances, groups: cfg.Groups, seed: cfg.Seed, capped: cfg.MaxLevel != nil}
	copy(k.logDomain[:], cfg.LogDomain)
	copy(k.maxLevel[:], cfg.MaxLevel)
	return k
}

// plans interns plans by configuration. Entries are weak, so a plan lives
// as long as some sketch or estimator holds it; a cleanup deletes the entry
// of a collected plan.
var plans = struct {
	sync.Mutex
	m map[planKey]weak.Pointer[Plan]
}{m: make(map[planKey]weak.Pointer[Plan])}

// planEntry is the intern-table entry a plan's cleanup deletes, unless a
// newer plan of the same configuration has replaced it.
type planEntry struct {
	key planKey
	wp  weak.Pointer[Plan]
}

func dropPlan(e planEntry) {
	plans.Lock()
	if plans.m[e.key] == e.wp {
		delete(plans.m, e.key)
	}
	plans.Unlock()
}

// NewPlan validates the configuration and returns its plan, deriving all
// xi-families from the seed the first time a configuration is asked for.
// Equal configurations share one plan, and with it the sign planes, for as
// long as any caller holds it.
func NewPlan(cfg Config) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	key := keyOf(cfg)
	plans.Lock()
	defer plans.Unlock()
	if p := plans.m[key].Value(); p != nil {
		return p, nil
	}
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	wp := weak.Make(p)
	plans.m[key] = wp
	runtime.AddCleanup(p, dropPlan, planEntry{key, wp})
	return p, nil
}

// newPlan builds a plan of a validated configuration, copying its slices.
func newPlan(cfg Config) (*Plan, error) {
	cfg = cfg.clone()
	p := &Plan{cfg: cfg}
	p.doms = make([]dyadic.Domain, cfg.Dims)
	p.maxLevel = make([]int, cfg.Dims)
	for i := 0; i < cfg.Dims; i++ {
		dom, err := dyadic.New(cfg.LogDomain[i])
		if err != nil {
			return nil, err
		}
		p.doms[i] = dom
		if cfg.MaxLevel == nil {
			p.maxLevel[i] = cfg.LogDomain[i]
		} else {
			ml := cfg.MaxLevel[i]
			if ml < 0 || ml > cfg.LogDomain[i] {
				ml = cfg.LogDomain[i]
			}
			p.maxLevel[i] = ml
		}
	}
	p.bank = xi.NewBank(cfg.Instances * cfg.Dims)
	p.planes = make([]signPlane, cfg.Dims)
	for dim := 0; dim < cfg.Dims; dim++ {
		for inst := 0; inst < cfg.Instances; inst++ {
			p.bank.SetSeed(p.famIndex(inst, dim), famSeed(cfg.Seed, inst, dim))
		}
		p.planes[dim].init(p.bank, p.famIndex(0, dim), cfg.Instances, cfg.LogDomain[dim])
	}
	return p, nil
}

// famIndex returns the bank slot of the (instance, dimension) family:
// dimension-major, so instances of one dimension are contiguous.
func (p *Plan) famIndex(inst, dim int) int { return dim*p.cfg.Instances + inst }

// family returns a standalone view of one (instance, dimension) family, for
// tests and single-evaluation paths.
func (p *Plan) family(inst, dim int) *xi.Family {
	return p.bank.Family(p.famIndex(inst, dim))
}

// MustPlan is NewPlan, panicking on error. For tests and examples.
func MustPlan(cfg Config) *Plan {
	p, err := NewPlan(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// famSeed mixes the master seed with the instance and dimension indices.
func famSeed(seed uint64, inst, dim int) uint64 {
	z := seed ^ (uint64(inst)+1)*0x9e3779b97f4a7c15 ^ (uint64(dim)+1)*0xc2b2ae3d27d4eb4f
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}

// Config returns a copy of the plan's configuration.
func (p *Plan) Config() Config { return p.cfg.clone() }

// Domains returns a copy of the dyadic domain of each dimension.
func (p *Plan) Domains() []dyadic.Domain { return slices.Clone(p.doms) }

// MaxLevels returns a copy of the effective per-dimension level caps.
func (p *Plan) MaxLevels() []int { return slices.Clone(p.maxLevel) }

// Instances returns the total number of atomic estimator instances.
func (p *Plan) Instances() int { return p.cfg.Instances }

// Groups returns the number of median groups (k2).
func (p *Plan) Groups() int { return p.cfg.Groups }

// checkRect validates a hyper-rectangle against the plan's domains.
func (p *Plan) checkRect(rect geo.HyperRect) error {
	if len(rect) != p.cfg.Dims {
		return fmt.Errorf("core: object dimensionality %d, want %d", len(rect), p.cfg.Dims)
	}
	for i, iv := range rect {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("core: invalid interval [%d, %d] in dim %d", iv.Lo, iv.Hi, i)
		}
		if iv.Hi >= p.doms[i].Size() {
			return fmt.Errorf("core: coordinate %d outside domain of size %d in dim %d", iv.Hi, p.doms[i].Size(), i)
		}
	}
	return nil
}

// checkPoint validates a point against the plan's domains.
func (p *Plan) checkPoint(pt geo.Point) error {
	if len(pt) != p.cfg.Dims {
		return fmt.Errorf("core: point dimensionality %d, want %d", len(pt), p.cfg.Dims)
	}
	for i, x := range pt {
		if x >= p.doms[i].Size() {
			return fmt.Errorf("core: coordinate %d outside domain of size %d in dim %d", x, p.doms[i].Size(), i)
		}
	}
	return nil
}

// log2ceil returns ceil(log2(x)) for x >= 1.
func log2ceil(x uint64) int {
	if x <= 1 {
		return 0
	}
	return bits.Len64(x - 1)
}

// samePlan reports whether two plans are interchangeable for estimation:
// either the same object, or value-identical configurations (which derive
// identical xi-families). This makes sketches serialized on one machine and
// rebuilt on another estimable against local ones.
func samePlan(a, b *Plan) bool {
	if a == b {
		return true
	}
	ca, cb := a.cfg, b.cfg
	if ca.Dims != cb.Dims || ca.Instances != cb.Instances || ca.Groups != cb.Groups || ca.Seed != cb.Seed {
		return false
	}
	for i := range ca.LogDomain {
		if ca.LogDomain[i] != cb.LogDomain[i] {
			return false
		}
	}
	for i := range a.maxLevel {
		if a.maxLevel[i] != b.maxLevel[i] {
			return false
		}
	}
	return true
}
