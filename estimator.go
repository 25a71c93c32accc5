package spatial

import (
	"fmt"

	"repro/geo"
	"repro/internal/core"
)

// The one estimator lifecycle.
//
// The paper's four estimators differ in their inputs and their reads but
// share one lifecycle: sharded linear sketches that are updated, merged,
// snapshotted and sized. estimator owns that lifecycle once - plan
// construction, record validation and apply, bulk insert, side counts,
// the memoized view reads, Merge, Version, and the one SPE1 marshal and
// decode path - on top of shardedState (shard.go). A kindSpec entry in
// the table of kinds.go supplies only what differs between the kinds.
// The public estimator types embed an estimator and add their
// kind-specific methods: named inserts, deletes and counts, and their
// reads.

// params is the union of the four public configurations: each public
// type maps its Config to params and back, and Unmarshal<Kind>Estimator
// reads one from a snapshot header.
type params struct {
	dims       int
	domainSize uint64
	sizing     Sizing
	maxLevel   int    // as configured: 0 adaptive, MaxLevelUncapped or explicit
	mode       Mode   // joins only
	eps        uint64 // epsilon-joins only
	seed       uint64
}

// shape is what a kind resolves a configuration to before planning: the
// core plan's geometry and one instance's per-side footprint in the
// paper's word accounting.
type shape struct {
	dims, logDomain int
	maxLevel        int // resolved level cap; 0 = uncapped
	words           float64
}

// kindSpec is one estimator kind's entry in the table of kinds.go:
// everything the lifecycle needs that differs between the kinds.
type kindSpec struct {
	kind  Kind
	sides []sideSpec
	// maxDims bounds the public dimensionality.
	maxDims int
	// extent: objects need extent in every dimension (the overlap join
	// of Definition 1 assumes it, Section 4.1).
	extent bool
	// shape validates the kind-specific configuration fields and resolves
	// the plan geometry and word accounting.
	shape func(p *params) (shape, error)
	// guarantee sizes (k1, k2) for Sizing.Guarantee by the kind's lemma.
	guarantee func(sh shape, g core.Guarantee, s Sizing) (k1, k2 int, err error)
	// cardinality is the estimate kernel of the two-input kinds, over
	// the two sides' sketches.
	cardinality func(x, y *core.Sketch) (core.Estimate, error)
}

// sideSpec is one input of an estimator kind.
type sideSpec struct {
	side   UpdateSide
	points bool // takes points (else rectangles)
	// input maps a checked public object to its sketch input: the
	// endpoint transformation, an eps-ball or the containment reduction.
	// nil passes the object through.
	input func(p *params, o object) object
	// kind is the side's row of the core letter table.
	kind core.Kind
}

// object is one geometric object, public or sketch-side: exactly one
// field is set.
type object struct {
	rect geo.HyperRect
	pt   geo.Point
}

// update feeds o into sk: inserted, or deleted when del.
func (o object) update(sk *core.Sketch, del bool) error {
	switch {
	case o.pt != nil && del:
		return sk.DeletePoint(o.pt)
	case o.pt != nil:
		return sk.InsertPoint(o.pt)
	case del:
		return sk.Delete(o.rect)
	}
	return sk.Insert(o.rect)
}

// insertObjects bulk-loads objs - all points or all rectangles - into sk.
func insertObjects(sk *core.Sketch, objs []object) error {
	if len(objs) > 0 && objs[0].pt != nil {
		pts := make([]geo.Point, len(objs))
		for j, o := range objs {
			pts[j] = o.pt
		}
		return sk.InsertPoints(pts)
	}
	rects := make([]geo.HyperRect, len(objs))
	for j, o := range objs {
		rects[j] = o.rect
	}
	return sk.InsertAll(rects)
}

// shard is one ingest shard's state: one core sketch per input side, in
// the kind's side order.
type shard []*core.Sketch

// estimator is the lifecycle every public estimator type embeds.
type estimator struct {
	k    *kindSpec
	p    params
	sh   shape
	plan *core.Plan
	st   *shardedState[shard]
}

// init validates a configuration of kind k, sizes and plans it, and
// allocates the shards.
func (e *estimator) init(k *kindSpec, p params) error {
	if p.dims < 1 || p.dims > k.maxDims {
		return fmt.Errorf("spatial: dims %d outside [1, %d]", p.dims, k.maxDims)
	}
	if p.domainSize < 2 {
		return fmt.Errorf("spatial: domain size must be >= 2, got %d", p.domainSize)
	}
	if p.mode != 0 && k.kind != KindJoin || p.eps != 0 && k.kind != KindEpsJoin {
		return fmt.Errorf("spatial: %v estimators take no mode or eps", k.kind)
	}
	sh, err := k.shape(&p)
	if err != nil {
		return err
	}
	instances, groups, err := p.sizing.resolve(k, sh)
	if err != nil {
		return err
	}
	cfg := core.Config{Dims: sh.dims, LogDomain: make([]int, sh.dims),
		Instances: instances, Groups: groups, Seed: p.seed}
	for i := range cfg.LogDomain {
		cfg.LogDomain[i] = sh.logDomain
	}
	if sh.maxLevel > 0 {
		cfg.MaxLevel = make([]int, sh.dims)
		for i := range cfg.MaxLevel {
			cfg.MaxLevel[i] = sh.maxLevel
		}
	}
	plan, err := core.NewPlan(cfg)
	if err != nil {
		return err
	}
	*e = estimator{k: k, p: p, sh: sh, plan: plan}
	e.st = newShardedState(ingestShards(), e.newShard)
	return nil
}

// newShard allocates one empty shard.
func (e *estimator) newShard() shard {
	s := make(shard, len(e.k.sides))
	for i := range s {
		s[i] = e.plan.NewSketch(e.k.sides[i].kind)
	}
	return s
}

// mergeShard folds src's counters into dst (exact, by linearity).
func (e *estimator) mergeShard(dst, src shard) error {
	for i := range dst {
		if err := dst[i].Merge(src[i]); err != nil {
			return err
		}
	}
	return nil
}

// view runs fn on a consistent read-only view of the whole estimator.
func (e *estimator) view(fn func(viewRef[shard]) error) error {
	return e.st.view(e.newShard, e.mergeShard, fn)
}

// memo runs an estimate kernel on one view, memoized per view in slot
// under key, and returns it with the first two side counts of the same
// view (the second is 0 for one-input kinds).
func (e *estimator) memo(slot int, key geo.HyperRect, kernel func(shard) (core.Estimate, error)) (est Estimate, c0, c1 int64, err error) {
	err = e.view(func(v viewRef[shard]) error {
		var err error
		est, c0, c1, err = v.memoized(slot, key, func() (Estimate, int64, int64, error) {
			ce, err := kernel(v.state)
			if err != nil {
				return Estimate{}, 0, 0, err
			}
			var c1 int64
			if len(v.state) > 1 {
				c1 = v.state[1].Count()
			}
			return fromCore(ce), v.state[0].Count(), c1, nil
		})
		return err
	})
	return est, c0, c1, err
}

// count returns the cardinality of side i (inserts minus deletes).
func (e *estimator) count(i int) int64 {
	var n int64
	e.st.fold(func(s shard) error {
		n += s[i].Count()
		return nil
	})
	return n
}

// Instances returns the number of atomic estimator instances maintained.
func (e *estimator) Instances() int { return e.plan.Instances() }

// Groups returns the number of median groups (k2).
func (e *estimator) Groups() int { return e.plan.Groups() }

// SpaceWords returns the synopsis footprint in the paper's word
// accounting (Section 4.1.5 / Section 7): every side's counters plus its
// share of the seed words, per instance. Ingest sharding replicates
// counters per shard at runtime; the paper accounting describes the
// logical (merged, serialized) synopsis.
func (e *estimator) SpaceWords() int {
	return int(float64(len(e.k.sides))*e.sh.words) * e.plan.Instances()
}

// Version returns the estimator's write version: a counter that grows by
// one with every write that reaches the sketches - insert, delete, bulk
// insert or merge - and never falls. A Marshal bracketed by two Version
// reads that agree returns the bytes of exactly that version, so
// (estimator, Version) can validate a snapshot without marshaling it.
// Safe for concurrent use.
func (e *estimator) Version() uint64 { return e.st.version() }

// sideIndex returns the shard index of an update side.
func (e *estimator) sideIndex(side UpdateSide) (int, error) {
	for i := range e.k.sides {
		if e.k.sides[i].side == side {
			return i, nil
		}
	}
	return 0, fmt.Errorf("spatial: %v estimators have no %v side", e.k.kind, side)
}

// check validates one public object against a side's input contract.
func (e *estimator) check(sd *sideSpec, o object) error {
	if sd.points {
		if o.pt == nil {
			return fmt.Errorf("spatial: %v estimators take points", e.k.kind)
		}
		if len(o.pt) != e.p.dims {
			return fmt.Errorf("spatial: point dimensionality %d, want %d", len(o.pt), e.p.dims)
		}
		for i, x := range o.pt {
			if x >= e.p.domainSize {
				return fmt.Errorf("spatial: coordinate %d outside domain %d in dim %d", x, e.p.domainSize, i)
			}
		}
		return nil
	}
	if o.rect == nil {
		return fmt.Errorf("spatial: %v estimators take rects", e.k.kind)
	}
	if len(o.rect) != e.p.dims {
		return fmt.Errorf("spatial: object dimensionality %d, want %d", len(o.rect), e.p.dims)
	}
	for i, iv := range o.rect {
		switch {
		case iv.Lo > iv.Hi:
			return fmt.Errorf("spatial: invalid interval [%d, %d] in dim %d", iv.Lo, iv.Hi, i)
		case iv.Hi >= e.p.domainSize:
			return fmt.Errorf("spatial: coordinate %d outside domain %d in dim %d", iv.Hi, e.p.domainSize, i)
		case e.k.extent && iv.IsPoint():
			return fmt.Errorf("spatial: degenerate interval [%d, %d] in dim %d: the overlap join of Definition 1 assumes objects with extent (Section 4.1); use range or epsilon-join estimators for point data", iv.Lo, iv.Hi, i)
		}
	}
	return nil
}

// validate checks rec against the estimator's input contract and returns
// the shard index of its side and its object. Apply and ValidateRecord
// both run it, so they cannot disagree.
func (e *estimator) validate(rec UpdateRecord) (int, object, error) {
	if rec.Op != OpInsert && rec.Op != OpDelete {
		return 0, object{}, fmt.Errorf("spatial: unknown update op %v", rec.Op)
	}
	i, err := e.sideIndex(rec.Side)
	if err != nil {
		return 0, object{}, err
	}
	sd := &e.k.sides[i]
	o := object{rect: rec.Rect}
	if sd.points {
		o = object{pt: rec.Point}
	}
	return i, o, e.check(sd, o)
}

// input maps a checked public object to side i's sketch input.
func (e *estimator) input(i int, o object) object {
	if in := e.k.sides[i].input; in != nil {
		return in(&e.p, o)
	}
	return o
}

// Apply replays one update record through the estimator's update path:
// feeding every update of one estimator, as records, into Apply on a
// same-config empty estimator reconstructs its counters bit-identically
// (updates commute, so order does not matter). A write-ahead log of
// records (AppendBinary) replays this way. Every insert and delete
// method is an Apply of its record.
func (e *estimator) Apply(rec UpdateRecord) error {
	i, o, err := e.validate(rec)
	if err != nil {
		return err
	}
	in, del := e.input(i, o), rec.Op == OpDelete
	return e.st.ingest(func(s shard) error { return in.update(s[i], del) })
}

// ValidateRecord checks rec against this estimator's input contract -
// exactly the validation Apply performs - without applying it. A record
// that passes can be journaled ahead of its apply: the later Apply cannot
// fail validation.
func (e *estimator) ValidateRecord(rec UpdateRecord) error {
	_, _, err := e.validate(rec)
	return err
}

// insertRects bulk-loads rectangles into one side.
func (e *estimator) insertRects(side UpdateSide, rects []geo.HyperRect) error {
	objs := make([]object, len(rects))
	for i, r := range rects {
		objs[i] = object{rect: r}
	}
	return e.insertAll(side, objs)
}

// insertPoints bulk-loads points into one side.
func (e *estimator) insertPoints(side UpdateSide, pts []geo.Point) error {
	objs := make([]object, len(pts))
	for i, p := range pts {
		objs[i] = object{pt: p}
	}
	return e.insertAll(side, objs)
}

// insertAll checks every object first, maps them to sketch inputs in
// place, and inserts them into one shard under one lock (the core sketches
// parallelize bulk loads internally).
func (e *estimator) insertAll(side UpdateSide, objs []object) error {
	i, err := e.sideIndex(side)
	if err != nil {
		return err
	}
	for _, o := range objs {
		if err := e.check(&e.k.sides[i], o); err != nil {
			return err
		}
	}
	for j, o := range objs {
		objs[j] = e.input(i, o)
	}
	return e.st.ingest(func(s shard) error { return insertObjects(s[i], objs) })
}

// header returns the snapshot header of this estimator's side: its full
// public configuration, the unit of comparison for every merge and
// snapshot operation.
func (e *estimator) header(side snapSide) snapHeader {
	return snapHeader{
		kind:       e.k.kind,
		side:       side,
		dims:       uint32(e.p.dims),
		domainSize: e.p.domainSize,
		mode:       uint32(e.p.mode),
		maxLevel:   int32(e.sh.maxLevel),
		eps:        e.p.eps,
		seed:       e.p.seed,
		instances:  uint64(e.plan.Instances()),
		groups:     uint64(e.plan.Groups()),
	}
}

// merge folds the synopses of o into e: afterwards e summarizes the union
// of both estimators' inputs, exactly (sketches are linear projections).
// The full public configurations must match - DomainSize, Mode and Eps
// included, which the core plan cannot see. o is snapshotted first, so
// no goroutine ever holds locks of both estimators at once.
func (e *estimator) merge(o *estimator) error {
	if err := e.header(sideBoth).compatible(o.header(sideBoth)); err != nil {
		return err
	}
	snap, err := o.st.snapshot(o.newShard, o.mergeShard)
	if err != nil {
		return err
	}
	return e.st.ingestFirst(func(s shard) error { return e.mergeShard(s, snap) })
}

// Marshal serializes the whole estimator - its synopses plus the full
// public configuration - into a versioned snapshot envelope. The snapshot
// round-trips through the kind's Unmarshal<Kind>Estimator to a working
// estimator whose estimates are bit-identical to this one's.
func (e *estimator) Marshal() ([]byte, error) { return e.marshal(sideBoth) }

// marshal snapshots one side, or every side.
func (e *estimator) marshal(side snapSide) ([]byte, error) {
	lo, hi := side.span(len(e.k.sides))
	blobs := make([][]byte, hi-lo)
	err := e.view(func(v viewRef[shard]) error {
		for j := range blobs {
			var err error
			if blobs[j], err = v.state[lo+j].MarshalBinary(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return marshalEnvelope(e.header(side), blobs), nil
}

// unmarshal builds e from a full snapshot of the given kind.
func (e *estimator) unmarshal(data []byte, kind Kind) error {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return err
	}
	if h.kind != kind {
		return fmt.Errorf("spatial: snapshot of a %v estimator, want %v", h.kind, kind)
	}
	err = e.init(kindOf(h.kind, Mode(h.mode)), params{
		dims:       int(h.dims),
		domainSize: h.domainSize,
		sizing:     Sizing{Instances: int(h.instances), Groups: int(h.groups)},
		maxLevel:   configuredMaxLevel(h.maxLevel),
		mode:       Mode(h.mode),
		eps:        h.eps,
		seed:       h.seed,
	})
	if err != nil {
		return fmt.Errorf("spatial: inconsistent snapshot configuration: %w", err)
	}
	return e.mergeBlobs(h, blobs, sideBoth)
}

// MergeSnapshot folds a Marshal snapshot produced by another estimator
// into this one. Any public-config mismatch - kind, dims, DomainSize,
// Mode, Eps, level cap, Seed, sizing - is rejected at decode time.
func (e *estimator) MergeSnapshot(data []byte) error { return e.mergeSnapshot(data, sideBoth) }

// mergeSnapshot folds a snapshot of one side, or of every side.
func (e *estimator) mergeSnapshot(data []byte, side snapSide) error {
	h, blobs, err := unmarshalEnvelope(data)
	if err != nil {
		return err
	}
	return e.mergeBlobs(h, blobs, side)
}

// mergeBlobs is the one snapshot decode: it checks the header (side
// included), the sub-sketch count and every sub-sketch's configuration
// against this estimator, then folds the sub-sketches into shard 0, the
// designated merge target. A snapshot that passes re-marshals to exactly
// its own bytes.
func (e *estimator) mergeBlobs(h snapHeader, blobs [][]byte, side snapSide) error {
	if err := e.header(side).compatible(h); err != nil {
		return err
	}
	lo, hi := side.span(len(e.k.sides))
	if len(blobs) != hi-lo {
		return fmt.Errorf("spatial: %v snapshot carries %d sub-sketches, want %d", h.kind, len(blobs), hi-lo)
	}
	sks := make([]*core.Sketch, len(blobs))
	for j, b := range blobs {
		sk, err := core.UnmarshalSketch(e.k.sides[lo+j].kind, b)
		if err != nil {
			return err
		}
		// Plans are interned per exact configuration, so a sub-sketch
		// shares e's plan only if its SPK1 configuration equals the one
		// the header derives.
		if sk.Plan() != e.plan {
			return fmt.Errorf("spatial: sub-sketch %d configuration differs from the snapshot header's", j)
		}
		sks[j] = sk
	}
	return e.st.ingestFirst(func(s shard) error {
		for j, sk := range sks {
			if err := s[lo+j].Merge(sk); err != nil {
				return err
			}
		}
		return nil
	})
}

// pairEstimator is the lifecycle of the two-input kinds - joins,
// epsilon-joins and containment joins - with the reads they share.
type pairEstimator struct{ estimator }

// Cardinality estimates the result size: |R join_o S| (the strict overlap
// of Definition 1) for a join, |A join_eps B| for an epsilon-join, and
// the number of (inner, outer) pairs with the inner object contained in
// the outer one for a containment join.
func (e *pairEstimator) Cardinality() (Estimate, error) {
	est, _, _, err := e.CardinalityWithCounts()
	return est, err
}

// CardinalityWithCounts returns Cardinality together with the two input
// cardinalities (left and right, or inner and outer), all read from the
// same consistent view - under concurrent writers, the counts are
// guaranteed to be the ones the estimate was computed against
// (Cardinality followed by a count read can interleave with updates).
func (e *pairEstimator) CardinalityWithCounts() (est Estimate, left, right int64, err error) {
	return e.memo(memoCardinality, nil, func(s shard) (core.Estimate, error) { return e.k.cardinality(s[0], s[1]) })
}

// Selectivity estimates Cardinality divided by the product of the two
// input cardinalities.
func (e *pairEstimator) Selectivity() (float64, error) {
	est, nl, nr, err := e.CardinalityWithCounts()
	if err != nil {
		return 0, err
	}
	if nl <= 0 || nr <= 0 {
		return 0, fmt.Errorf("spatial: selectivity undefined for empty inputs (%d, %d)", nl, nr)
	}
	return est.Clamped() / (float64(nl) * float64(nr)), nil
}

// built returns e, or nil when its construction failed.
func built[T any](e *T, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}
