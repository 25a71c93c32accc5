package spatial_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	spatial "repro"
	"repro/geo"
	"repro/internal/datagen"
)

// The SPE1 snapshot bytes are an on-disk (checkpoints, WAL snapshot
// records) and on-the-wire (cluster partition transfers) format, laid
// out in docs/SNAPSHOT_FORMAT.md. These digests pin Marshal's output for
// fixed-seed estimators of every kind, so a codec rewrite that shifts a
// single byte fails here instead of in a mixed-version cluster or on a
// recovering node. A digest changes only with a deliberate format
// change, which must also bump SnapshotVersion.
var snapshotGolden = map[string]string{
	"join-transform":       "a8a89249b0fa252d1cf5a227b0c3924be90382998ec6c76389f97bf851abd1d9",
	"join-transform-left":  "39a32f4483e0fd8fe0b6ae3616f7f37c5acf2fbbc8dfb78e6ddb5db6e2129bc9",
	"join-transform-right": "eae95a3134e76346f10e629d036a27b0e4ecc22bb9f528d9b57b7b4b3c3a9a15",
	"join-ce":              "f45afe05ce8477c225c0dbd8ad57eb6488c9ce9a6795afc5ccccafd900e20a83",
	"range":                "b34b5bd5a2fbe22580a5f69374354818c2f06eb83eb57c8a8338483b5879781a",
	"range-uncapped":       "4af457c9427c27f1e86d7364730092dc16d32d4747581c377f53c53b20f03283",
	"epsjoin":              "a98be59c0e3dff2e0d5587ee006533fe9cdde72e0e3214b1fbe06975401475ea",
	"containment":          "b6c43560f58f28f33e4fbba368aec084e5066a3c4cebace0e7351d0ef286b98c",
}

// goldenSnapshots builds the fixtures behind snapshotGolden.
func goldenSnapshots(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	add := func(name string, data []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = data
	}

	jt := snapJoin(t, spatial.ModeTransform)
	data, err := jt.Marshal()
	add("join-transform", data, err)
	data, err = jt.MarshalLeft()
	add("join-transform-left", data, err)
	data, err = jt.MarshalRight()
	add("join-transform-right", data, err)
	data, err = snapJoin(t, spatial.ModeCommonEndpoints).Marshal()
	add("join-ce", data, err)

	for name, maxLevel := range map[string]int{"range": 0, "range-uncapped": spatial.MaxLevelUncapped} {
		re, err := spatial.NewRangeEstimator(spatial.RangeConfig{
			Dims: 1, DomainSize: 1000, MaxLevel: maxLevel,
			Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := re.InsertBulk(datagen.MustRects(datagen.Spec{N: 150, Dims: 1, Domain: 1000, Seed: 3})); err != nil {
			t.Fatal(err)
		}
		data, err := re.Marshal()
		add(name, data, err)
	}

	ee, err := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{
		Dims: 2, DomainSize: 500, Eps: 9,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geo.Point, 120)
	for i := range pts {
		pts[i] = geo.Point{uint64(i*7) % 500, uint64(i*13) % 500}
	}
	if err := ee.InsertLeftBulk(pts); err != nil {
		t.Fatal(err)
	}
	if err := ee.InsertRightBulk(pts[:70]); err != nil {
		t.Fatal(err)
	}
	data, err = ee.Marshal()
	add("epsjoin", data, err)

	ce, err := spatial.NewContainmentEstimator(spatial.ContainmentConfig{
		Dims: 2, DomainSize: 500,
		Sizing: spatial.Sizing{Instances: 64, Groups: 4}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rects := datagen.MustRects(datagen.Spec{N: 90, Dims: 2, Domain: 500, Seed: 4})
	if err := ce.InsertInnerBulk(rects); err != nil {
		t.Fatal(err)
	}
	if err := ce.InsertOuterBulk(rects[:50]); err != nil {
		t.Fatal(err)
	}
	data, err = ce.Marshal()
	add("containment", data, err)
	return out
}

func TestSnapshotGoldenDigests(t *testing.T) {
	snaps := goldenSnapshots(t)
	if len(snaps) != len(snapshotGolden) {
		t.Fatalf("%d fixtures built, %d digests pinned", len(snaps), len(snapshotGolden))
	}
	for name, data := range snaps {
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != snapshotGolden[name] {
			t.Errorf("%s: SPE1 digest %s (%d bytes), pinned %s", name, got, len(data), snapshotGolden[name])
		}
	}
}

// TestSnapshotCodecAllocs bounds the allocations of Marshal and
// MergeSnapshot on a 256-instance 2-d join, the partition size the
// repository benchmark transfers. The codec encodes into one pre-sized
// slice and decodes by indexing its input, so the count must not grow
// with the 2048 counters; what remains is the envelope, the blobs and
// each decoded sketch, which allocates its counters and no update
// scratch.
func TestSnapshotCodecAllocs(t *testing.T) {
	cfg := spatial.JoinConfig{Dims: 2, DomainSize: 4096, Seed: 1,
		Sizing: spatial.Sizing{Instances: 256, Groups: 4}}
	src, err := spatial.NewJoinEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range datagen.MustRects(datagen.Spec{N: 40, Dims: 2, Domain: 4096, Seed: 8, MeanLen: []float64{200, 200}}) {
		if i%2 == 0 {
			err = src.InsertLeft(r)
		} else {
			err = src.InsertRight(r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	dst, err := spatial.NewJoinEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	marshal := testing.AllocsPerRun(20, func() {
		if _, err := src.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
	merge := testing.AllocsPerRun(20, func() {
		if err := dst.MergeSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	})
	const maxMarshal, maxMerge = 8, 10
	if marshal > maxMarshal || merge > maxMerge {
		t.Errorf("allocs: Marshal %.0f (max %d), MergeSnapshot %.0f (max %d)", marshal, maxMarshal, merge, maxMerge)
	}
}
