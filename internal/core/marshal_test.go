package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/geo"
	"repro/internal/datagen"
)

// roundTrip marshals s and decodes it, failing t unless the result has
// s's kind, plan, count and counters.
func roundTrip(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSketch(s.kind, data)
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != s.kind || got.Plan() != s.Plan() {
		t.Fatalf("%v sketch decoded as a %v sketch of another plan", s.kind, got.kind)
	}
	sameSketch(t, "round trip", got, s)
	return got
}

// TestJoinSketchMarshalRoundTrip: a join sketch survives SPK1, and the
// reconstructed plan derives identical families - the join estimate on a
// round-tripped pair equals the one on the originals.
func TestJoinSketchMarshalRoundTrip(t *testing.T) {
	p := MustPlan(Config{
		Dims: 2, LogDomain: []int{6, 6}, MaxLevel: []int{4, 6},
		Instances: 24, Groups: 4, Seed: 0xfeed,
	})
	s, y := p.NewSketch(KindJoin), p.NewSketch(KindJoin)
	if err := s.InsertAll(datagen.MustRects(datagen.Spec{N: 40, Dims: 2, Domain: 64, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	if err := y.InsertAll(datagen.MustRects(datagen.Spec{N: 30, Dims: 2, Domain: 64, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	orig, err := EstimateJoin(s, y)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := EstimateJoin(roundTrip(t, s), roundTrip(t, y))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Value != rt.Value {
		t.Fatalf("estimate changed across serialization: %g vs %g", orig.Value, rt.Value)
	}
}

// TestCESketchMarshalRoundTrip: same round trip for a KindCE sketch.
func TestCESketchMarshalRoundTrip(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{5}, Instances: 12, Groups: 4, Seed: 3})
	s := p.NewSketch(KindCE)
	if err := s.Insert(geo.Span1D(2, 9)); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

// TestPointBoxRangeMarshalRoundTrip: same round trip for KindPoint,
// KindBox and KindRange sketches, and the range estimate on the
// round-tripped range sketch equals the one on the original.
func TestPointBoxRangeMarshalRoundTrip(t *testing.T) {
	p := MustPlan(Config{Dims: 2, LogDomain: []int{5, 5}, Instances: 8, Groups: 4, Seed: 4})
	pt := p.NewSketch(KindPoint)
	if err := pt.InsertPoint(geo.Point{3, 7}); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, pt)

	bx := p.NewSketch(KindBox)
	if err := bx.Insert(geo.Rect(1, 5, 2, 9)); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, bx)

	rg := p.NewSketch(KindRange)
	if err := rg.Insert(geo.Rect(1, 5, 2, 9)); err != nil {
		t.Fatal(err)
	}
	q := geo.Rect(0, 8, 0, 8)
	a, err := rg.EstimateRange(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := roundTrip(t, rg).EstimateRange(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Fatalf("range estimate changed across serialization: %g vs %g", a.Value, b.Value)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 1})
	s := p.NewSketch(KindJoin)
	data, _ := s.MarshalBinary()

	if _, err := UnmarshalSketch(KindJoin, nil); err == nil {
		t.Error("nil data should fail")
	}
	if _, err := UnmarshalSketch(KindJoin, data[:8]); err == nil {
		t.Error("truncated data should fail")
	}
	// Wrong kind: a CE payload fed to the join decoder.
	ce, _ := p.NewSketch(KindCE).MarshalBinary()
	if _, err := UnmarshalSketch(KindJoin, ce); err == nil {
		t.Error("kind mismatch should fail")
	}
	// Corrupt magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := UnmarshalSketch(KindJoin, bad); err == nil {
		t.Error("bad magic should fail")
	}
}

// TestUnmarshalNonCanonicalRejected: a serialized sketch has one encoding
// per (configuration, counters) pair, so a decoded sketch re-marshals to
// exactly its input - a level-cap flag other than 0 or 1, or bytes after
// the counters, are refused rather than dropped.
func TestUnmarshalNonCanonicalRejected(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 1}) // uncapped: flag 0
	data, _ := p.NewSketch(KindJoin).MarshalBinary()
	if _, err := UnmarshalSketch(KindJoin, data); err != nil {
		t.Fatal(err)
	}
	flag := bytes.Clone(data)
	binary.LittleEndian.PutUint32(flag[16:], 2) // past magic, kind, dims and logDomain[0]
	if _, err := UnmarshalSketch(KindJoin, flag); err == nil {
		t.Error("level-cap flag 2 decoded")
	}
	if _, err := UnmarshalSketch(KindJoin, append(bytes.Clone(data), 0)); err == nil {
		t.Error("trailing byte decoded")
	}
}

// TestUnmarshalHugeInstancesRejected: a tiny corrupted payload whose
// header claims an enormous instance count must be rejected by the
// counter-payload cross-check BEFORE NewPlan attempts the matching
// (multi-terabyte) xi-bank allocation.
func TestUnmarshalHugeInstancesRejected(t *testing.T) {
	craft := func(kind Kind, instances, groups, declaredCounters uint64) []byte {
		var w bytes.Buffer
		binary.Write(&w, binary.LittleEndian, uint32(marshalMagic))
		binary.Write(&w, binary.LittleEndian, kind)
		binary.Write(&w, binary.LittleEndian, uint32(1)) // dims
		binary.Write(&w, binary.LittleEndian, int32(4))  // logDomain[0]
		binary.Write(&w, binary.LittleEndian, uint32(0)) // no maxLevel
		binary.Write(&w, binary.LittleEndian, instances)
		binary.Write(&w, binary.LittleEndian, groups)
		binary.Write(&w, binary.LittleEndian, uint64(1)) // seed
		binary.Write(&w, binary.LittleEndian, int64(0))  // count
		binary.Write(&w, binary.LittleEndian, declaredCounters)
		binary.Write(&w, binary.LittleEndian, int64(0)) // one counter word
		return w.Bytes()
	}

	for _, kind := range allKinds {
		dec := func(b []byte) error { _, err := UnmarshalSketch(kind, b); return err }
		// ~60-byte payload claiming 2^40 instances: must error, not OOM.
		if err := dec(craft(kind, 1<<40, 1, 1)); err == nil {
			t.Errorf("kind %d: 2^40-instance header decoded", kind)
		}
		// Instance count inconsistent with the declared counter payload.
		if err := dec(craft(kind, 1<<20, 1, 1)); err == nil {
			t.Errorf("kind %d: instance/counter mismatch decoded", kind)
		}
		// Groups that do not divide instances.
		if err := dec(craft(kind, 4, 3, 8)); err == nil {
			t.Errorf("kind %d: groups 3 with instances 4 decoded", kind)
		}
		// Zero instances.
		if err := dec(craft(kind, 0, 1, 0)); err == nil {
			t.Errorf("kind %d: zero instances decoded", kind)
		}
	}
}
