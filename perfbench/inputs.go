package main

import (
	"fmt"
	"math/rand"

	spatial "repro"
	"repro/geo"
)

// Benchmark inputs: the eight targets (two tenants x four estimator
// kinds, mirroring cmd/spatialload's), their sizing, and the seeded
// generators for records and queries. Everything a run sends is drawn
// from these, so one seed always yields the same input streams.

// Sizing shared by every target. 256 instances make a partition snapshot
// ~16.6 KB and a 2-d join insert ~0.1 ms, so the compute layers show next
// to the transport ones.
const (
	domain           = 4096
	instances        = 256
	groups           = 4
	partitions       = 4
	nodes            = 3
	zipfS            = 1.2
	batchSize        = 32
	preloadPerTarget = 256 // streamed records per target at set-up
	preloadJSON      = 8   // JSON updates per target at set-up
	queryPool        = 16  // distinct range queries per range target
)

// target is one estimator the benchmark drives: a tenant ("" is the
// default namespace) plus the estimator's name and kind.
type target struct {
	tenant, name, kind string
}

// qualified returns the registry key ("acme/j" or "j").
func (t target) qualified() string {
	if t.tenant == "" {
		return t.name
	}
	return t.tenant + "/" + t.name
}

// path returns the estimator's HTTP route prefix on a node.
func (t target) path(base string) string {
	if t.tenant == "" {
		return base + "/v1/estimators/" + t.name
	}
	return base + "/v1/tenants/" + t.tenant + "/estimators/" + t.name
}

// tenants lists the namespaces; "" is the default tenant.
var tenants = []string{"", "acme"}

// kinds lists the estimator kinds with their per-tenant names.
var kinds = []struct{ name, kind string }{
	{"j", "join"}, {"r", "range"}, {"e", "epsjoin"}, {"c", "containment"},
}

// allTargets returns the eight targets in a fixed order.
func allTargets() []target {
	var out []target
	for _, tn := range tenants {
		for _, k := range kinds {
			out = append(out, target{tenant: tn, name: k.name, kind: k.kind})
		}
	}
	return out
}

// createConfig is a target's create-request config; newRef must build
// the identical estimator in process.
func createConfig(kind string) map[string]any {
	cfg := map[string]any{"domainSize": domain, "instances": instances, "groups": groups}
	switch kind {
	case "join":
		cfg["dims"], cfg["seed"] = 2, 1
	case "range":
		cfg["dims"], cfg["seed"] = 1, 2
	case "epsjoin":
		cfg["dims"], cfg["seed"], cfg["eps"] = 2, 3, 8
	case "containment":
		cfg["dims"], cfg["seed"] = 2, 4
	}
	return cfg
}

// refEstimator is what the benchmark needs of an in-process estimator.
type refEstimator interface {
	Apply(rec spatial.UpdateRecord) error
	Marshal() ([]byte, error)
	MergeSnapshot(data []byte) error
}

// newRef builds an empty in-process estimator configured exactly like
// the cluster's target of that kind.
func newRef(kind string) (refEstimator, error) {
	sz := spatial.Sizing{Instances: instances, Groups: groups}
	switch kind {
	case "join":
		return spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: domain, Seed: 1, Sizing: sz})
	case "range":
		return spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 1, DomainSize: domain, Seed: 2, Sizing: sz})
	case "epsjoin":
		return spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{Dims: 2, DomainSize: domain, Eps: 8, Seed: 3, Sizing: sz})
	case "containment":
		return spatial.NewContainmentEstimator(spatial.ContainmentConfig{Dims: 2, DomainSize: domain, Seed: 4, Sizing: sz})
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// unmarshalRef restores an in-process estimator from a snapshot.
func unmarshalRef(kind string, data []byte) (refEstimator, error) {
	switch kind {
	case "join":
		return spatial.UnmarshalJoinEstimator(data)
	case "range":
		return spatial.UnmarshalRangeEstimator(data)
	case "epsjoin":
		return spatial.UnmarshalEpsJoinEstimator(data)
	case "containment":
		return spatial.UnmarshalContainmentEstimator(data)
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// estimateValue computes the value the server answers for a target: the
// strict cardinality, or the range estimate of q.
func estimateValue(e refEstimator, q geo.HyperRect) (float64, error) {
	var est spatial.Estimate
	var err error
	switch x := e.(type) {
	case *spatial.JoinEstimator:
		est, err = x.Cardinality()
	case *spatial.RangeEstimator:
		est, err = x.Estimate(q)
	case *spatial.EpsJoinEstimator:
		est, err = x.Cardinality()
	case *spatial.ContainmentEstimator:
		est, err = x.Cardinality()
	default:
		err = fmt.Errorf("unknown estimator %T", e)
	}
	return est.Value, err
}

// recordGen draws update records for one writer. Mostly inserts, with a
// one-in-eight delete of an object this writer inserted earlier and has
// not deleted yet, so every delete is of a present object.
type recordGen struct {
	rng     *rand.Rand
	history map[int][]spatial.UpdateRecord // live inserts per target index
}

// newRecordGen seeds a generator; stream separates the writers of one
// run.
func newRecordGen(seed int64, stream int64) *recordGen {
	return &recordGen{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + stream)),
		history: map[int][]spatial.UpdateRecord{},
	}
}

// next draws one record for target ti of the given kind.
func (g *recordGen) next(ti int, kind string) spatial.UpdateRecord {
	rng := g.rng
	if h := g.history[ti]; len(h) > 0 && rng.Intn(8) == 0 {
		i := rng.Intn(len(h))
		rec := h[i]
		h[i] = h[len(h)-1] // order is irrelevant; keep the delete O(1)
		g.history[ti] = h[:len(h)-1]
		rec.Op = spatial.OpDelete
		return rec
	}
	span := func() geo.Interval {
		lo := rng.Uint64() % (domain - 1)
		return geo.NewInterval(lo, lo+1+rng.Uint64()%(domain-lo-1))
	}
	side := func(a, b spatial.UpdateSide) spatial.UpdateSide {
		if rng.Intn(2) == 1 {
			return b
		}
		return a
	}
	rec := spatial.UpdateRecord{Op: spatial.OpInsert}
	switch kind {
	case "join":
		rec.Side = side(spatial.SideLeft, spatial.SideRight)
		rec.Rect = geo.HyperRect{span(), span()}
	case "range":
		rec.Side = spatial.SideData
		rec.Rect = geo.HyperRect{span()}
	case "epsjoin":
		rec.Side = side(spatial.SideLeft, spatial.SideRight)
		rec.Point = geo.Point{rng.Uint64() % domain, rng.Uint64() % domain}
	case "containment":
		rec.Side = side(spatial.SideInner, spatial.SideOuter)
		rec.Rect = geo.HyperRect{span(), span()}
	}
	g.history[ti] = append(g.history[ti], rec)
	return rec
}

// targetPicker draws target indexes with zipf skew (hot keys).
type targetPicker struct {
	zipf *rand.Zipf
}

// newTargetPicker seeds a picker over n targets.
func newTargetPicker(seed, stream int64, n int) *targetPicker {
	rng := rand.New(rand.NewSource(seed*1_000_033 + stream))
	return &targetPicker{zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

// next returns the next target index.
func (p *targetPicker) next() int { return int(p.zipf.Uint64()) }

// Seed streams: each client of a run draws from its own stream, offset
// by its index, so the traced run can regenerate exactly what it sent.
const (
	streamPreload = 100 // + target index
	streamReader  = 200 // + client index
	streamWriter  = 300 // + client index
	streamIngest  = 500 // + client index
)

// readOp is one estimate: a target index and, for range targets, the
// index of the query in the pool.
type readOp struct {
	target, query int
}

// readGen draws one reader's estimates: zipf-picked targets and a pooled
// query for range targets.
type readGen struct {
	pick    *targetPicker
	rng     *rand.Rand
	targets []target
}

// newReadGen seeds reader i's stream.
func newReadGen(seed int64, i int) *readGen {
	t := allTargets()
	return &readGen{
		pick:    newTargetPicker(seed, streamReader+int64(i), len(t)),
		rng:     rand.New(rand.NewSource(seed*1_000_039 + streamReader + int64(i))),
		targets: t,
	}
}

// next returns the reader's next estimate.
func (g *readGen) next() readOp {
	op := readOp{target: g.pick.next()}
	if g.targets[op.target].kind == "range" {
		op.query = g.rng.Intn(queryPool)
	}
	return op
}

// writeGen draws one JSON writer's updates: a zipf-picked target and a
// record for it.
type writeGen struct {
	pick    *targetPicker
	gen     *recordGen
	targets []target
}

// newWriteGen seeds writer i's stream.
func newWriteGen(seed int64, i int) *writeGen {
	t := allTargets()
	return &writeGen{
		pick:    newTargetPicker(seed, streamWriter+int64(i), len(t)),
		gen:     newRecordGen(seed, streamWriter+int64(i)),
		targets: t,
	}
}

// next returns the writer's next update.
func (g *writeGen) next() ackedOp {
	ti := g.pick.next()
	return ackedOp{target: ti, rec: g.gen.next(ti, g.targets[ti].kind)}
}

// ingestTarget returns the join target ingest session i streams into.
func ingestTarget(i int) int {
	var joins []int
	for ti, tg := range allTargets() {
		if tg.kind == "join" {
			joins = append(joins, ti)
		}
	}
	return joins[i%len(joins)]
}

// queries returns the seeded pool of range queries every range target
// is asked: 1-d intervals covering between a quarter and all of the
// domain.
func queries(seed int64) []geo.HyperRect {
	rng := rand.New(rand.NewSource(seed*1_000_037 + 7))
	out := make([]geo.HyperRect, queryPool)
	for i := range out {
		lo := rng.Uint64() % (domain / 2)
		hi := lo + domain/4 + rng.Uint64()%(domain-lo-domain/4)
		out[i] = geo.HyperRect{geo.NewInterval(lo, hi)}
	}
	return out
}

// wireRect converts a rect to the JSON wire form.
func wireRect(r geo.HyperRect) [][2]uint64 {
	out := make([][2]uint64, len(r))
	for i, iv := range r {
		out[i] = [2]uint64{iv.Lo, iv.Hi}
	}
	return out
}

// updateWire is the POST /update body.
type updateWire struct {
	Op     string        `json:"op,omitempty"`
	Side   string        `json:"side,omitempty"`
	Rects  [][][2]uint64 `json:"rects,omitempty"`
	Points [][]uint64    `json:"points,omitempty"`
}

// toWire converts one record to its JSON update body.
func toWire(rec spatial.UpdateRecord) updateWire {
	w := updateWire{}
	switch rec.Side {
	case spatial.SideLeft:
		w.Side = "left"
	case spatial.SideRight:
		w.Side = "right"
	case spatial.SideInner:
		w.Side = "inner"
	case spatial.SideOuter:
		w.Side = "outer"
	}
	if rec.Op == spatial.OpDelete {
		w.Op = "delete"
	}
	if rec.Point != nil {
		w.Points = [][]uint64{rec.Point}
	} else {
		w.Rects = [][][2]uint64{wireRect(rec.Rect)}
	}
	return w
}

// ackedOp is one acknowledged mutation: the target index and record.
type ackedOp struct {
	target int
	rec    spatial.UpdateRecord
}
