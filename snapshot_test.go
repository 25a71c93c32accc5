package spatial_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	spatial "repro"
	"repro/geo"
	"repro/internal/datagen"
)

// Snapshot-envelope tests: every estimator type must round-trip through
// Marshal / Unmarshal<Kind>Estimator to a working estimator whose
// estimates are bit-identical to the source's, and every public-config
// mismatch must be caught at decode time.

func snapJoin(t *testing.T, mode spatial.Mode) *spatial.JoinEstimator {
	t.Helper()
	e, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 300,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4},
		Mode:   mode, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := datagen.MustRects(datagen.Spec{N: 80, Dims: 2, Domain: 300, Seed: 1, MeanLen: []float64{40, 40}})
	s := datagen.MustRects(datagen.Spec{N: 80, Dims: 2, Domain: 300, Seed: 2, MeanLen: []float64{40, 40}})
	if err := e.InsertLeftBulk(r); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRightBulk(s); err != nil {
		t.Fatal(err)
	}
	return e
}

func sameEstimate(t *testing.T, name string, a, b spatial.Estimate) {
	t.Helper()
	if a.Value != b.Value || a.Mean != b.Mean || a.SampleVariance != b.SampleVariance {
		t.Fatalf("%s: estimate (%v, %v, %v) != source (%v, %v, %v)",
			name, b.Value, b.Mean, b.SampleVariance, a.Value, a.Mean, a.SampleVariance)
	}
	if len(a.GroupMeans) != len(b.GroupMeans) {
		t.Fatalf("%s: group count %d != %d", name, len(b.GroupMeans), len(a.GroupMeans))
	}
	for i := range a.GroupMeans {
		if a.GroupMeans[i] != b.GroupMeans[i] {
			t.Fatalf("%s: group mean %d: %v != %v", name, i, b.GroupMeans[i], a.GroupMeans[i])
		}
	}
}

func TestJoinSnapshotRoundTrip(t *testing.T) {
	for _, mode := range []spatial.Mode{spatial.ModeTransform, spatial.ModeCommonEndpoints} {
		src := snapJoin(t, mode)
		data, err := src.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if k, err := spatial.SnapshotKind(data); err != nil || k != spatial.KindJoin {
			t.Fatalf("snapshot kind = %v, %v", k, err)
		}
		got, err := spatial.UnmarshalJoinEstimator(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.LeftCount() != src.LeftCount() || got.RightCount() != src.RightCount() {
			t.Fatalf("%v: counts (%d, %d) != (%d, %d)", mode,
				got.LeftCount(), got.RightCount(), src.LeftCount(), src.RightCount())
		}
		want, err := src.Cardinality()
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Cardinality()
		if err != nil {
			t.Fatal(err)
		}
		sameEstimate(t, mode.String(), want, have)
		// The extended-join estimate round-trips too in CE mode.
		if mode == spatial.ModeCommonEndpoints {
			we, err := src.CardinalityExtended()
			if err != nil {
				t.Fatal(err)
			}
			ge, err := got.CardinalityExtended()
			if err != nil {
				t.Fatal(err)
			}
			sameEstimate(t, "ce-extended", we, ge)
		}
		// The restored estimator keeps working: inserts still go through.
		if err := got.InsertLeft(geo.Rect(1, 5, 1, 5)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRangeSnapshotRoundTrip(t *testing.T) {
	cfg := spatial.RangeConfig{
		Dims: 1, DomainSize: 1000,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 5,
	}
	src, err := spatial.NewRangeEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rects := datagen.MustRects(datagen.Spec{N: 150, Dims: 1, Domain: 1000, Seed: 3})
	if err := src.InsertBulk(rects); err != nil {
		t.Fatal(err)
	}
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := spatial.UnmarshalRangeEstimator(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != src.Count() {
		t.Fatalf("count %d != %d", got.Count(), src.Count())
	}
	q := geo.Span1D(100, 700)
	want, err := src.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, "range", want, have)
}

func TestEpsJoinSnapshotRoundTrip(t *testing.T) {
	cfg := spatial.EpsJoinConfig{
		Dims: 2, DomainSize: 500, Eps: 9,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 6,
	}
	src, err := spatial.NewEpsJoinEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geo.Point, 120)
	for i := range pts {
		pts[i] = geo.Point{uint64(i*7) % 500, uint64(i*13) % 500}
	}
	if err := src.InsertLeftBulk(pts); err != nil {
		t.Fatal(err)
	}
	if err := src.InsertRightBulk(pts); err != nil {
		t.Fatal(err)
	}
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := spatial.UnmarshalEpsJoinEstimator(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config().Eps != cfg.Eps {
		t.Fatalf("eps %d did not round-trip", got.Config().Eps)
	}
	want, _ := src.Cardinality()
	have, err := got.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, "epsjoin", want, have)
}

func TestContainmentSnapshotRoundTrip(t *testing.T) {
	cfg := spatial.ContainmentConfig{
		Dims: 2, DomainSize: 500,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 7,
	}
	src, err := spatial.NewContainmentEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rects := datagen.MustRects(datagen.Spec{N: 90, Dims: 2, Domain: 500, Seed: 4})
	if err := src.InsertInnerBulk(rects); err != nil {
		t.Fatal(err)
	}
	if err := src.InsertOuterBulk(rects); err != nil {
		t.Fatal(err)
	}
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := spatial.UnmarshalContainmentEstimator(data)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := src.Cardinality()
	have, err := got.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, "containment", want, have)
}

// TestMergeSnapshotEquivalence: merging a snapshot is bit-identical to
// merging the live estimator it was taken from.
func TestMergeSnapshotEquivalence(t *testing.T) {
	a := snapJoin(t, spatial.ModeTransform)
	b := snapJoin(t, spatial.ModeTransform)
	direct := snapJoin(t, spatial.ModeTransform)
	if err := direct.Merge(b); err != nil {
		t.Fatal(err)
	}
	snap, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	want, _ := direct.Cardinality()
	have, err := a.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, "merge-snapshot", want, have)
}

// TestSnapshotConfigMismatches: decode-time rejection of every
// public-config divergence, including those invisible to the core plan.
func TestSnapshotConfigMismatches(t *testing.T) {
	base := snapJoin(t, spatial.ModeTransform)
	snap, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// DomainSize 300 vs 320: both transform-pad to the same internal plan,
	// so only the envelope check can catch it.
	other, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 320,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4},
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.MergeSnapshot(snap); err == nil {
		t.Fatal("cross-domain-size snapshot merge should fail")
	}

	// Wrong kind.
	re, err := spatial.NewRangeEstimator(spatial.RangeConfig{
		Dims: 2, DomainSize: 300,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.MergeSnapshot(snap); err == nil {
		t.Fatal("join snapshot must not merge into a range estimator")
	}
	if _, err := spatial.UnmarshalRangeEstimator(snap); err == nil {
		t.Fatal("join snapshot must not decode as a range estimator")
	}

	// Eps mismatch, invisible to the core plan (9 and 10 derive the same
	// adaptive level cap).
	mkEps := func(eps uint64) *spatial.EpsJoinEstimator {
		e, err := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{
			Dims: 2, DomainSize: 500, Eps: eps,
			Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e9, e10 := mkEps(9), mkEps(10)
	esnap, err := e9.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := e10.MergeSnapshot(esnap); err == nil {
		t.Fatal("cross-eps snapshot merge should fail")
	}

	// Truncations and corruptions of a valid snapshot never decode.
	for cut := 0; cut < len(snap); cut += 7 {
		if _, err := spatial.UnmarshalJoinEstimator(snap[:cut]); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) decoded", cut)
		}
	}
	garbled := bytes.Clone(snap)
	garbled[0] ^= 0xff
	if _, err := spatial.UnmarshalJoinEstimator(garbled); err == nil {
		t.Fatal("bad magic decoded")
	}
}

// TestSideSnapshotChecks: single-side snapshots carry the full public
// config and refuse cross-config or cross-side merges.
func TestSideSnapshotChecks(t *testing.T) {
	a := snapJoin(t, spatial.ModeTransform)
	left, err := a.MarshalLeft()
	if err != nil {
		t.Fatal(err)
	}
	// A left blob does not merge as a right blob.
	if err := a.MergeRightFrom(left); err == nil {
		t.Fatal("left snapshot merged into right side")
	}
	// Nor into a different domain size.
	other, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 320,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.MergeLeftFrom(left); err == nil {
		t.Fatal("cross-domain-size side merge should fail")
	}
	// Nor does a full snapshot pass as a side snapshot.
	full, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergeLeftFrom(full); err == nil {
		t.Fatal("full snapshot accepted by MergeLeftFrom")
	}
	// A matching left blob does merge, doubling the left count.
	before := a.LeftCount()
	if err := a.MergeLeftFrom(left); err != nil {
		t.Fatal(err)
	}
	if a.LeftCount() != 2*before {
		t.Fatalf("left count after side merge = %d, want %d", a.LeftCount(), 2*before)
	}
	// Full snapshots do not reconstruct from a side snapshot.
	if _, err := spatial.UnmarshalJoinEstimator(left); err == nil {
		t.Fatal("side snapshot reconstructed a full estimator")
	}
}

// Offsets into the fixed SPE1 header (docs/SNAPSHOT_FORMAT.md): the
// side field, and the end of the header (nblobs included).
const (
	snapSideOffset = 12
	snapHeaderLen  = 72
)

// forgedSideSnapshot is a valid range snapshot whose side field claims a
// single join side - a side no range estimator has.
func forgedSideSnapshot(tb testing.TB) []byte {
	data := rangeSnapForDecode(tb, 0)
	binary.LittleEndian.PutUint32(data[snapSideOffset:], 1)
	return data
}

// forgedConfigSnapshot is a range snapshot whose header declares level
// cap 100 while its sub-sketch was planned with the cap 100 clamps to:
// the same effective plan, a different SPK1 configuration.
func forgedConfigSnapshot(tb testing.TB) []byte {
	capped := rangeSnapForDecode(tb, 100)
	clamped := rangeSnapForDecode(tb, 8) // log2ceil of the transformed domain 192
	return append(capped[:snapHeaderLen:snapHeaderLen], clamped[snapHeaderLen:]...)
}

func rangeSnapForDecode(tb testing.TB, maxLevel int) []byte {
	e, err := spatial.NewRangeEstimator(spatial.RangeConfig{
		Dims: 1, DomainSize: 64, MaxLevel: maxLevel, Sizing: spatial.Sizing{Instances: 8, Groups: 4},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Insert(geo.Span1D(3, 9)); err != nil {
		tb.Fatal(err)
	}
	data, err := e.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestCanonicalSnapshotDecode: the one decode path refuses a full-kind
// snapshot whose side is not "full" and a sub-sketch whose configuration
// differs from the one its header derives - in every entry point, so an
// accepted snapshot always re-marshals to its own bytes.
func TestCanonicalSnapshotDecode(t *testing.T) {
	valid := rangeSnapForDecode(t, 0)
	for name, data := range map[string][]byte{
		"side": forgedSideSnapshot(t), "sub-sketch config": forgedConfigSnapshot(t),
	} {
		if _, err := spatial.UnmarshalRangeEstimator(data); err == nil {
			t.Errorf("%s: UnmarshalRangeEstimator accepted a forged snapshot", name)
		}
		if _, _, err := spatial.MergeSnapshots(data); err == nil {
			t.Errorf("%s: MergeSnapshots accepted a forged first snapshot", name)
		}
		if _, _, err := spatial.MergeSnapshots(valid, data); err == nil {
			t.Errorf("%s: MergeSnapshots accepted a forged second snapshot", name)
		}
		e, err := spatial.UnmarshalRangeEstimator(valid)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.MergeSnapshot(data); err == nil {
			t.Errorf("%s: MergeSnapshot accepted a forged snapshot", name)
		}
	}
	// The side check holds for the two-input kinds too.
	ee, _ := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{
		Dims: 1, DomainSize: 64, Eps: 3, Sizing: spatial.Sizing{Instances: 8, Groups: 4},
	})
	ke, _ := spatial.NewContainmentEstimator(spatial.ContainmentConfig{
		Dims: 1, DomainSize: 64, Sizing: spatial.Sizing{Instances: 8, Groups: 4},
	})
	for _, side := range []uint32{1, 2} {
		esnap, _ := ee.Marshal()
		ksnap, _ := ke.Marshal()
		binary.LittleEndian.PutUint32(esnap[snapSideOffset:], side)
		binary.LittleEndian.PutUint32(ksnap[snapSideOffset:], side)
		if _, err := spatial.UnmarshalEpsJoinEstimator(esnap); err == nil {
			t.Errorf("epsilon-join snapshot with side %d decoded", side)
		}
		if err := ee.MergeSnapshot(esnap); err == nil {
			t.Errorf("epsilon-join snapshot with side %d merged", side)
		}
		if _, err := spatial.UnmarshalContainmentEstimator(ksnap); err == nil {
			t.Errorf("containment snapshot with side %d decoded", side)
		}
		if err := ke.MergeSnapshot(ksnap); err == nil {
			t.Errorf("containment snapshot with side %d merged", side)
		}
	}
}

// FuzzUnmarshal drives arbitrary bytes through every snapshot decoder:
// none may panic, none may allocate proportionally to unvalidated header
// fields (the decoders bound every allocation by the payload actually
// present), and every snapshot a decoder accepts re-marshals to exactly
// its input bytes - one encoding per estimator state.
func FuzzUnmarshal(f *testing.F) {
	join := snapJoinForFuzz(f, spatial.ModeTransform)
	ce := snapJoinForFuzz(f, spatial.ModeCommonEndpoints)
	f.Add(join)
	f.Add(ce)
	if side, err := mustJoinForFuzz(f, spatial.ModeTransform).MarshalLeft(); err == nil {
		f.Add(side)
	}
	re, _ := spatial.NewRangeEstimator(spatial.RangeConfig{
		Dims: 1, DomainSize: 64, Sizing: spatial.Sizing{Instances: 8, Groups: 4},
	})
	if data, err := re.Marshal(); err == nil {
		f.Add(data)
	}
	ee, _ := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{
		Dims: 1, DomainSize: 64, Eps: 3, Sizing: spatial.Sizing{Instances: 8, Groups: 4},
	})
	if data, err := ee.Marshal(); err == nil {
		f.Add(data)
	}
	ke, _ := spatial.NewContainmentEstimator(spatial.ContainmentConfig{
		Dims: 1, DomainSize: 64, Sizing: spatial.Sizing{Instances: 8, Groups: 4},
	})
	if data, err := ke.Marshal(); err == nil {
		f.Add(data)
	}
	f.Add(forgedSideSnapshot(f))
	f.Add(forgedConfigSnapshot(f))
	f.Add([]byte{})
	f.Add(join[:8])
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		spatial.SnapshotKind(data)
		roundTrip := func(name string, marshal func() ([]byte, error)) {
			out, err := marshal()
			if err != nil {
				t.Fatalf("%s: accepted snapshot does not marshal: %v", name, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%s: accepted snapshot re-marshals to different bytes", name)
			}
		}
		if e, err := spatial.UnmarshalJoinEstimator(data); err == nil {
			e.Cardinality()
			roundTrip("join", e.Marshal)
		}
		if e, err := spatial.UnmarshalRangeEstimator(data); err == nil {
			e.Count()
			roundTrip("range", e.Marshal)
		}
		if e, err := spatial.UnmarshalEpsJoinEstimator(data); err == nil {
			e.Cardinality()
			roundTrip("epsjoin", e.Marshal)
		}
		if e, err := spatial.UnmarshalContainmentEstimator(data); err == nil {
			e.Cardinality()
			roundTrip("containment", e.Marshal)
		}
	})
}

func mustJoinForFuzz(f *testing.F, mode spatial.Mode) *spatial.JoinEstimator {
	e, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 1, DomainSize: 64,
		Sizing: spatial.Sizing{Instances: 8, Groups: 4},
		Mode:   mode, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	e.InsertLeft(geo.Span1D(3, 9))
	e.InsertRight(geo.Span1D(5, 12))
	return e
}

func snapJoinForFuzz(f *testing.F, mode spatial.Mode) []byte {
	data, err := mustJoinForFuzz(f, mode).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// TestMergeSnapshotsGather proves the scatter-gather identity behind
// cluster estimates: partition an update stream arbitrarily across
// several estimators, merge their snapshots with MergeSnapshots, and the
// result is BYTE-identical to a single estimator that saw the whole
// stream.
func TestMergeSnapshotsGather(t *testing.T) {
	cfg := spatial.RangeConfig{Dims: 2, DomainSize: 300,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 5}
	whole, err := spatial.NewRangeEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 3
	var shards [parts]*spatial.RangeEstimator
	for i := range shards {
		if shards[i], err = spatial.NewRangeEstimator(cfg); err != nil {
			t.Fatal(err)
		}
	}
	rects := datagen.MustRects(datagen.Spec{N: 90, Dims: 2, Domain: 300, Seed: 9, MeanLen: []float64{30, 30}})
	for i, r := range rects {
		if err := whole.Insert(r); err != nil {
			t.Fatal(err)
		}
		if err := shards[i%parts].Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	snaps := make([][]byte, parts)
	for i, sh := range shards {
		if snaps[i], err = sh.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	merged, kind, err := spatial.MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	if kind != spatial.KindRange {
		t.Fatalf("kind = %v, want range", kind)
	}
	want, err := whole.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, want) {
		t.Fatal("merged partition snapshots differ from the single-build snapshot")
	}
	// Config mismatches and empty input are rejected.
	other, err := spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 2, DomainSize: 301,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	badSnap, err := other.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := spatial.MergeSnapshots(snaps[0], badSnap); err == nil {
		t.Fatal("MergeSnapshots accepted a config mismatch")
	}
	if _, _, err := spatial.MergeSnapshots(); err == nil {
		t.Fatal("MergeSnapshots accepted zero snapshots")
	}
	// All four kinds dispatch.
	j := snapJoin(t, spatial.ModeTransform)
	js, err := j.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, kind, err := spatial.MergeSnapshots(js, js); err != nil || kind != spatial.KindJoin {
		t.Fatalf("join dispatch: kind %v, err %v", kind, err)
	}
}

// TestVersionTracksWrites pins the write-version contract servers build
// snapshot validators on: every write call - single, bulk, delete, merge,
// snapshot merge, side merge - raises Version, reads never do, and two
// Marshal calls at one version return identical bytes. Four ingest shards
// make sure the version sums every shard, not only the one written.
func TestVersionTracksWrites(t *testing.T) {
	defer spatial.SetIngestShardsForTest(4)()
	e := snapJoin(t, spatial.ModeTransform)
	other := snapJoin(t, spatial.ModeTransform)
	r := geo.Rect(3, 90, 7, 120)
	v := e.Version()
	snap, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func() error{
		"InsertLeft":      func() error { return e.InsertLeft(r) },
		"InsertRightBulk": func() error { return e.InsertRightBulk([]geo.HyperRect{r, r}) },
		"DeleteLeft":      func() error { return e.DeleteLeft(r) },
		"Merge":           func() error { return e.Merge(other) },
		"MergeSnapshot":   func() error { return e.MergeSnapshot(snap) },
		"MergeLeftFrom": func() error {
			left, err := other.MarshalLeft()
			if err != nil {
				return err
			}
			return e.MergeLeftFrom(left)
		},
	} {
		if err := write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nv := e.Version(); nv <= v {
			t.Fatalf("%s: version %d -> %d, want it to grow", name, v, nv)
		}
		v = e.Version()
		a, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Cardinality(); err != nil {
			t.Fatal(err)
		}
		b, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if e.Version() != v || !bytes.Equal(a, b) {
			t.Fatalf("%s: reads moved the version or the bytes", name)
		}
	}
}
