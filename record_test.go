package spatial_test

import (
	"bytes"
	"fmt"
	"testing"

	spatial "repro"
	"repro/geo"
	"repro/internal/datagen"
)

// TestUpdateRecordCodecRoundTrip round-trips every record shape through
// the stable binary codec, including back-to-back records in one buffer.
func TestUpdateRecordCodecRoundTrip(t *testing.T) {
	recs := []spatial.UpdateRecord{
		{Op: spatial.OpInsert, Side: spatial.SideLeft, Rect: geo.Rect(10, 50, 20, 80)},
		{Op: spatial.OpDelete, Side: spatial.SideRight, Rect: geo.Rect(0, 1, 1<<40, 1<<40+7)},
		{Op: spatial.OpInsert, Side: spatial.SideData, Rect: geo.Span1D(3, 9)},
		{Op: spatial.OpDelete, Side: spatial.SideInner, Rect: geo.Rect(5, 6, 7, 8)},
		{Op: spatial.OpInsert, Side: spatial.SideOuter, Rect: geo.Rect(1, 2, 3, 4)},
		{Op: spatial.OpInsert, Side: spatial.SideLeft, Point: geo.Point{1, 2, 3}},
		{Op: spatial.OpDelete, Side: spatial.SideRight, Point: geo.Point{1 << 60}},
	}
	var buf []byte
	for _, r := range recs {
		buf = r.AppendBinary(buf)
	}
	for i, want := range recs {
		got, n, err := spatial.DecodeUpdateRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		buf = buf[n:]
		if got.Op != want.Op || got.Side != want.Side {
			t.Fatalf("record %d: decoded (%v, %v), want (%v, %v)", i, got.Op, got.Side, want.Op, want.Side)
		}
		if fmt.Sprint(got.Rect) != fmt.Sprint(want.Rect) || fmt.Sprint(got.Point) != fmt.Sprint(want.Point) {
			t.Fatalf("record %d: decoded %+v, want %+v", i, got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after decoding all records", len(buf))
	}
}

// TestUpdateRecordCodecRejectsGarbage covers decoder error paths.
func TestUpdateRecordCodecRejectsGarbage(t *testing.T) {
	good := spatial.UpdateRecord{Op: spatial.OpInsert, Side: spatial.SideLeft, Rect: geo.Rect(1, 2, 3, 4)}.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":          {},
		"one byte":       {0},
		"bad flags":      {0xf0, 0},
		"bad side":       {0, 99, 2},
		"zero dims":      {0, 1, 0},
		"huge dims":      {0, 1, 200},
		"truncated rect": good[:len(good)-1],
	}
	for name, data := range cases {
		if _, _, err := spatial.DecodeUpdateRecord(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// rectRecs returns one record per rect, all with the same op and side.
func rectRecs(op spatial.UpdateOp, side spatial.UpdateSide, rects ...geo.HyperRect) []spatial.UpdateRecord {
	recs := make([]spatial.UpdateRecord, len(rects))
	for i, r := range rects {
		recs[i] = spatial.UpdateRecord{Op: op, Side: side, Rect: r}
	}
	return recs
}

// pointRecs returns one record per point, all with the same op and side.
func pointRecs(op spatial.UpdateOp, side spatial.UpdateSide, pts ...geo.Point) []spatial.UpdateRecord {
	recs := make([]spatial.UpdateRecord, len(pts))
	for i, p := range pts {
		recs[i] = spatial.UpdateRecord{Op: op, Side: side, Point: p}
	}
	return recs
}

// TestTapReplayBitIdentical drives a mixed point/bulk insert/delete
// workload through each estimator kind's public update methods, replays
// the same updates as codec-round-tripped records through Apply on a
// same-config empty estimator, and requires bit-identical snapshots - the
// exactness property WAL replay is built on.
func TestTapReplayBitIdentical(t *testing.T) {
	const dom = 1 << 10
	sz := spatial.Sizing{Instances: 64, Groups: 4}
	rects := datagen.MustRects(datagen.Spec{N: 64, Dims: 2, Domain: dom, Seed: 8})
	spans := datagen.MustRects(datagen.Spec{N: 64, Dims: 1, Domain: dom, Seed: 9})
	var pts []geo.Point
	for _, r := range rects {
		pts = append(pts, geo.Point{r[0].Lo, r[1].Lo})
	}
	ins, del := spatial.OpInsert, spatial.OpDelete
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	t.Run("join", func(t *testing.T) {
		mk := func() *spatial.JoinEstimator {
			e, err := spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: dom, Sizing: sz, Seed: 1})
			must(err)
			return e
		}
		src, dst := mk(), mk()
		must(src.InsertLeftBulk(rects[:32]))
		must(src.InsertRight(rects[40]))
		must(src.DeleteLeft(rects[3]))
		recs := append(rectRecs(ins, spatial.SideLeft, rects[:32]...), rectRecs(ins, spatial.SideRight, rects[40])...)
		recs = append(recs, rectRecs(del, spatial.SideLeft, rects[3])...)
		replayAndCompare(t, recs, dst.Apply, src.Marshal, dst.Marshal)
	})
	t.Run("range", func(t *testing.T) {
		mk := func() *spatial.RangeEstimator {
			e, err := spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 1, DomainSize: dom, Sizing: sz, Seed: 2})
			must(err)
			return e
		}
		src, dst := mk(), mk()
		must(src.InsertBulk(spans[:20]))
		must(src.Delete(spans[5]))
		recs := append(rectRecs(ins, spatial.SideData, spans[:20]...), rectRecs(del, spatial.SideData, spans[5])...)
		replayAndCompare(t, recs, dst.Apply, src.Marshal, dst.Marshal)
	})
	t.Run("epsjoin", func(t *testing.T) {
		mk := func() *spatial.EpsJoinEstimator {
			e, err := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{Dims: 2, DomainSize: dom, Eps: 4, Sizing: sz, Seed: 3})
			must(err)
			return e
		}
		src, dst := mk(), mk()
		must(src.InsertLeftBulk(pts[:16]))
		must(src.InsertRightBulk(pts[16:32]))
		must(src.DeleteRight(pts[20]))
		recs := append(pointRecs(ins, spatial.SideLeft, pts[:16]...), pointRecs(ins, spatial.SideRight, pts[16:32]...)...)
		recs = append(recs, pointRecs(del, spatial.SideRight, pts[20])...)
		replayAndCompare(t, recs, dst.Apply, src.Marshal, dst.Marshal)
	})
	t.Run("containment", func(t *testing.T) {
		mk := func() *spatial.ContainmentEstimator {
			e, err := spatial.NewContainmentEstimator(spatial.ContainmentConfig{Dims: 2, DomainSize: dom, Sizing: sz, Seed: 4})
			must(err)
			return e
		}
		src, dst := mk(), mk()
		must(src.InsertInnerBulk(rects[:16]))
		must(src.InsertOuter(rects[30]))
		must(src.DeleteInner(rects[2]))
		recs := append(rectRecs(ins, spatial.SideInner, rects[:16]...), rectRecs(ins, spatial.SideOuter, rects[30])...)
		recs = append(recs, rectRecs(del, spatial.SideInner, rects[2])...)
		replayAndCompare(t, recs, dst.Apply, src.Marshal, dst.Marshal)
	})
}

// replayAndCompare routes recs through the binary codec (as a WAL would),
// applies them to the destination and compares snapshot bytes.
func replayAndCompare(t *testing.T, recs []spatial.UpdateRecord,
	apply func(spatial.UpdateRecord) error, srcMarshal, dstMarshal func() ([]byte, error)) {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = r.AppendBinary(buf)
	}
	for len(buf) > 0 {
		rec, n, err := spatial.DecodeUpdateRecord(buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[n:]
		if err := apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	want, err := srcMarshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dstMarshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replayed estimator snapshot differs from the directly updated source")
	}
}

// FuzzUpdateRecord fuzzes the update-record codec: any bytes the decoder
// accepts must re-encode canonically and decode back to the same record -
// the property replication replay and WAL shipping rely on.
func FuzzUpdateRecord(f *testing.F) {
	for _, rec := range []spatial.UpdateRecord{
		{Op: spatial.OpInsert, Side: spatial.SideLeft, Rect: geo.Rect(10, 50, 20, 80)},
		{Op: spatial.OpDelete, Side: spatial.SideRight, Rect: geo.Rect(0, 1, 1<<40, 1<<40+7)},
		{Op: spatial.OpInsert, Side: spatial.SideData, Rect: geo.Span1D(3, 9)},
		{Op: spatial.OpDelete, Side: spatial.SideOuter, Rect: geo.Rect(5, 6, 7, 8)},
		{Op: spatial.OpInsert, Side: spatial.SideLeft, Point: geo.Point{1, 2, 3}},
		{Op: spatial.OpDelete, Side: spatial.SideRight, Point: geo.Point{1 << 60}},
	} {
		f.Add(rec.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Add([]byte{0x02, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := spatial.DecodeUpdateRecord(data)
		if err != nil {
			return // rejection is fine; no panic, no allocation blow-up
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		enc := rec.AppendBinary(nil)
		rec2, n2, err := spatial.DecodeUpdateRecord(enc)
		if err != nil {
			t.Fatalf("re-decoding the canonical encoding failed: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("canonical encoding is %d bytes but re-decode consumed %d", len(enc), n2)
		}
		if rec2.Op != rec.Op || rec2.Side != rec.Side ||
			fmt.Sprint(rec2.Rect) != fmt.Sprint(rec.Rect) || fmt.Sprint(rec2.Point) != fmt.Sprint(rec.Point) {
			t.Fatalf("round trip changed the record: %+v -> %+v", rec, rec2)
		}
		if !bytes.Equal(enc, rec2.AppendBinary(nil)) {
			t.Fatalf("encoding is not stable across a round trip")
		}
		if rec.RoutingHash() != rec2.RoutingHash() {
			t.Fatalf("routing hash changed across a round trip")
		}
		del := rec
		del.Op = spatial.OpDelete
		if del.RoutingHash() != rec.RoutingHash() {
			t.Fatalf("routing hash depends on the operation: insert and its delete would split partitions")
		}
	})
}

// TestApplyMismatchedKind replays records against estimators of the wrong
// kind (or wrong side/geometry) and demands a clean error with no state
// change - replication ships these records across nodes, so a mis-routed
// record must never corrupt counters.
func TestApplyMismatchedKind(t *testing.T) {
	sz := spatial.Sizing{Instances: 16, Groups: 4}
	join, err := spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: 64, Sizing: sz, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng, err2 := spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 2, DomainSize: 64, Sizing: sz, Seed: 2})
	if err2 != nil {
		t.Fatal(err2)
	}
	eps, err3 := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{Dims: 2, DomainSize: 64, Eps: 4, Sizing: sz, Seed: 3})
	if err3 != nil {
		t.Fatal(err3)
	}
	cont, err4 := spatial.NewContainmentEstimator(spatial.ContainmentConfig{Dims: 2, DomainSize: 64, Sizing: sz, Seed: 4})
	if err4 != nil {
		t.Fatal(err4)
	}
	rect := geo.Rect(1, 5, 2, 6)
	pt := geo.Point{1, 2}
	type applier interface {
		Apply(spatial.UpdateRecord) error
	}
	cases := []struct {
		name string
		est  applier
		rec  spatial.UpdateRecord
	}{
		{"join gets a point", join, spatial.UpdateRecord{Side: spatial.SideLeft, Point: pt}},
		{"join gets a data-side record", join, spatial.UpdateRecord{Side: spatial.SideData, Rect: rect}},
		{"join gets an inner-side record", join, spatial.UpdateRecord{Side: spatial.SideInner, Rect: rect}},
		{"range gets a point", rng, spatial.UpdateRecord{Side: spatial.SideData, Point: pt}},
		{"range gets a left-side record", rng, spatial.UpdateRecord{Side: spatial.SideLeft, Rect: rect}},
		{"epsjoin gets a rect", eps, spatial.UpdateRecord{Side: spatial.SideLeft, Rect: rect}},
		{"epsjoin gets an outer-side record", eps, spatial.UpdateRecord{Side: spatial.SideOuter, Point: pt}},
		{"containment gets a point", cont, spatial.UpdateRecord{Side: spatial.SideInner, Point: pt}},
		{"containment gets a right-side record", cont, spatial.UpdateRecord{Side: spatial.SideRight, Rect: rect}},
	}
	for _, c := range cases {
		if err := c.est.Apply(c.rec); err == nil {
			t.Errorf("%s: Apply accepted a mismatched record", c.name)
		}
	}
	if n := join.LeftCount() + join.RightCount(); n != 0 {
		t.Errorf("join counters moved on rejected records: %d", n)
	}
	if n := rng.Count(); n != 0 {
		t.Errorf("range counter moved on rejected records: %d", n)
	}
	if n := eps.LeftCount() + eps.RightCount(); n != 0 {
		t.Errorf("epsjoin counters moved on rejected records: %d", n)
	}
	if n := cont.InnerCount() + cont.OuterCount(); n != 0 {
		t.Errorf("containment counters moved on rejected records: %d", n)
	}
}

// TestValidateRecordAgreesWithApply: on every kind, ValidateRecord and
// Apply accept and refuse the same records - an unknown Op included - so
// a record journaled after ValidateRecord passed can always be applied,
// and a refused one leaves the estimator untouched.
func TestValidateRecordAgreesWithApply(t *testing.T) {
	sz := spatial.Sizing{Instances: 16, Groups: 4}
	type recordTaker interface {
		Apply(spatial.UpdateRecord) error
		ValidateRecord(spatial.UpdateRecord) error
		Version() uint64
	}
	join, _ := spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: 64, Sizing: sz})
	rng, _ := spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 2, DomainSize: 64, Sizing: sz})
	eps, _ := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{Dims: 2, DomainSize: 64, Eps: 4, Sizing: sz})
	cont, _ := spatial.NewContainmentEstimator(spatial.ContainmentConfig{Dims: 2, DomainSize: 64, Sizing: sz})
	rect, pt := geo.Rect(1, 5, 2, 6), geo.Point{1, 2}
	cases := []struct {
		name string
		est  recordTaker
		rec  spatial.UpdateRecord
	}{
		{"join", join, spatial.UpdateRecord{Side: spatial.SideLeft, Rect: rect}},
		{"range", rng, spatial.UpdateRecord{Side: spatial.SideData, Rect: rect}},
		{"epsjoin", eps, spatial.UpdateRecord{Side: spatial.SideRight, Point: pt}},
		{"containment", cont, spatial.UpdateRecord{Side: spatial.SideOuter, Rect: rect}},
	}
	for _, c := range cases {
		for _, op := range []spatial.UpdateOp{spatial.OpInsert, spatial.OpDelete, 2, 255} {
			rec := c.rec
			rec.Op = op
			before := c.est.Version()
			verr, aerr := c.est.ValidateRecord(rec), c.est.Apply(rec)
			if (verr == nil) != (aerr == nil) {
				t.Errorf("%s, op %v: ValidateRecord says %v, Apply says %v", c.name, op, verr, aerr)
			}
			known := op == spatial.OpInsert || op == spatial.OpDelete
			if known != (aerr == nil) {
				t.Errorf("%s, op %v: Apply error %v", c.name, op, aerr)
			}
			if wrote := c.est.Version() != before; wrote != known {
				t.Errorf("%s, op %v: refused record changed the estimator (or accepted one did not)", c.name, op)
			}
		}
	}
	if n := rng.Count(); n != 0 {
		t.Errorf("range count %d after one insert and one delete, want 0", n)
	}
}
