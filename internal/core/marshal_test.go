package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/geo"
	"repro/internal/datagen"
)

func TestJoinSketchMarshalRoundTrip(t *testing.T) {
	p := MustPlan(Config{
		Dims: 2, LogDomain: []int{6, 6}, MaxLevel: []int{4, 6},
		Instances: 24, Groups: 4, Seed: 0xfeed,
	})
	s := p.NewJoinSketch()
	if err := s.InsertAll(datagen.MustRects(datagen.Spec{N: 40, Dims: 2, Domain: 64, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalJoinSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != s.Count() {
		t.Fatalf("count %d != %d", got.Count(), s.Count())
	}
	for i := range s.counters {
		if got.counters[i] != s.counters[i] {
			t.Fatalf("counter %d differs", i)
		}
	}
	// The reconstructed plan produces identical families: estimates on the
	// round-tripped pair must equal estimates on the originals.
	y := p.NewJoinSketch()
	if err := y.InsertAll(datagen.MustRects(datagen.Spec{N: 30, Dims: 2, Domain: 64, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	yData, err := y.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gotY, err := UnmarshalJoinSketch(yData)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := EstimateJoin(s, y)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := EstimateJoin(got, gotY)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Value != rt.Value {
		t.Fatalf("estimate changed across serialization: %g vs %g", orig.Value, rt.Value)
	}
}

func TestCESketchMarshalRoundTrip(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{5}, Instances: 12, Groups: 4, Seed: 3})
	s := p.NewCESketch()
	if err := s.Insert(geo.Span1D(2, 9)); err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCESketch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.counters {
		if got.counters[i] != s.counters[i] {
			t.Fatalf("counter %d differs", i)
		}
	}
}

func TestPointBoxRangeMarshalRoundTrip(t *testing.T) {
	p := MustPlan(Config{Dims: 2, LogDomain: []int{5, 5}, Instances: 8, Groups: 4, Seed: 4})
	pt := p.NewPointSketch()
	if err := pt.Insert(geo.Point{3, 7}); err != nil {
		t.Fatal(err)
	}
	ptData, _ := pt.MarshalBinary()
	gotPt, err := UnmarshalPointSketch(ptData)
	if err != nil {
		t.Fatal(err)
	}
	if gotPt.Count() != 1 || gotPt.counters[0] != pt.counters[0] {
		t.Fatal("point sketch round trip failed")
	}

	bx := p.NewBoxSketch()
	if err := bx.Insert(geo.Rect(1, 5, 2, 9)); err != nil {
		t.Fatal(err)
	}
	bxData, _ := bx.MarshalBinary()
	gotBx, err := UnmarshalBoxSketch(bxData)
	if err != nil {
		t.Fatal(err)
	}
	if gotBx.counters[0] != bx.counters[0] {
		t.Fatal("box sketch round trip failed")
	}

	rg := p.NewRangeSketch()
	if err := rg.Insert(geo.Rect(1, 5, 2, 9)); err != nil {
		t.Fatal(err)
	}
	rgData, _ := rg.MarshalBinary()
	gotRg, err := UnmarshalRangeSketch(rgData)
	if err != nil {
		t.Fatal(err)
	}
	q := geo.Rect(0, 8, 0, 8)
	a, err := rg.EstimateRange(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gotRg.EstimateRange(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Fatal("range sketch round trip changed estimates")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 1})
	s := p.NewJoinSketch()
	data, _ := s.MarshalBinary()

	if _, err := UnmarshalJoinSketch(nil); err == nil {
		t.Error("nil data should fail")
	}
	if _, err := UnmarshalJoinSketch(data[:8]); err == nil {
		t.Error("truncated data should fail")
	}
	// Wrong kind: a CE payload fed to the join decoder.
	ce, _ := p.NewCESketch().MarshalBinary()
	if _, err := UnmarshalJoinSketch(ce); err == nil {
		t.Error("kind mismatch should fail")
	}
	// Corrupt magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := UnmarshalJoinSketch(bad); err == nil {
		t.Error("bad magic should fail")
	}
}

// TestUnmarshalNonCanonicalRejected: a serialized sketch has one encoding
// per (configuration, counters) pair, so a decoded sketch re-marshals to
// exactly its input - a level-cap flag other than 0 or 1, or bytes after
// the counters, are refused rather than dropped.
func TestUnmarshalNonCanonicalRejected(t *testing.T) {
	p := MustPlan(Config{Dims: 1, LogDomain: []int{4}, Instances: 4, Groups: 2, Seed: 1}) // uncapped: flag 0
	data, _ := p.NewJoinSketch().MarshalBinary()
	if _, err := UnmarshalJoinSketch(data); err != nil {
		t.Fatal(err)
	}
	flag := bytes.Clone(data)
	binary.LittleEndian.PutUint32(flag[16:], 2) // past magic, kind, dims and logDomain[0]
	if _, err := UnmarshalJoinSketch(flag); err == nil {
		t.Error("level-cap flag 2 decoded")
	}
	if _, err := UnmarshalJoinSketch(append(bytes.Clone(data), 0)); err == nil {
		t.Error("trailing byte decoded")
	}
}

// TestUnmarshalHugeInstancesRejected: a tiny corrupted payload whose
// header claims an enormous instance count must be rejected by the
// counter-payload cross-check BEFORE NewPlan attempts the matching
// (multi-terabyte) xi-bank allocation.
func TestUnmarshalHugeInstancesRejected(t *testing.T) {
	craft := func(kind uint32, instances, groups, declaredCounters uint64) []byte {
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

	decoders := map[uint32]func([]byte) error{
		kindJoinSketch: func(b []byte) error { _, err := UnmarshalJoinSketch(b); return err },
		kindCESketch:   func(b []byte) error { _, err := UnmarshalCESketch(b); return err },
		kindPoint:      func(b []byte) error { _, err := UnmarshalPointSketch(b); return err },
		kindBox:        func(b []byte) error { _, err := UnmarshalBoxSketch(b); return err },
		kindRange:      func(b []byte) error { _, err := UnmarshalRangeSketch(b); return err },
	}
	for kind, dec := range decoders {
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
