package spatial_test

// Benchmark harness: one testing.B target per figure of the paper's
// evaluation (Section 7) plus the ablation studies indexed in DESIGN.md.
// Each benchmark runs the corresponding experiment at a reduced scale
// (Section 7's setup shrunk density-preservingly; see EXPERIMENTS.md) and
// reports the figure's headline metric as custom benchmark units, so
// `go test -bench=.` regenerates the numbers behind every figure.
//
// cmd/spatialbench runs the same experiments at arbitrary scales and
// prints the full tables.

import (
	"strconv"
	"sync/atomic"
	"testing"

	spatial "repro"
	"repro/geo"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/wal"
)

// benchOpt keeps a full -bench=. sweep in the minutes range.
func benchOpt() experiments.Options {
	return experiments.Options{Scale: 0.01, Seed: 1, Runs: 1}
}

// reportColumn parses column col of every row as float64 and reports its
// mean as a custom metric.
func reportColumn(b *testing.B, tab experiments.Table, col int, unit string) {
	b.Helper()
	var sum float64
	n := 0
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), unit)
	}
}

func runFigure(b *testing.B, name string, errCols map[int]string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.ByName(name, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for col, unit := range errCols {
				reportColumn(b, tab, col, unit)
			}
		}
	}
}

// BenchmarkFig5SizeSweepUniform regenerates Figure 5 (error vs dataset
// size, uniform data, equal space for SKETCH / EH / GH).
func BenchmarkFig5SizeSweepUniform(b *testing.B) {
	runFigure(b, "fig5", map[int]string{2: "relerr-sketch", 3: "relerr-eh", 4: "relerr-gh"})
}

// BenchmarkFig6SizeSweepZipf1 regenerates Figure 6 (error vs dataset size,
// zipf 1 skew).
func BenchmarkFig6SizeSweepZipf1(b *testing.B) {
	runFigure(b, "fig6", map[int]string{2: "relerr-sketch", 3: "relerr-eh", 4: "relerr-gh"})
}

// BenchmarkFig7ErrorGuarantee regenerates Figure 7 (true error vs the
// guaranteed eps = 0.3 bound).
func BenchmarkFig7ErrorGuarantee(b *testing.B) {
	runFigure(b, "fig7", map[int]string{1: "true-relerr"})
}

// BenchmarkFig8SpaceRequirement regenerates Figure 8 (space for the fixed
// guarantee vs dataset size).
func BenchmarkFig8SpaceRequirement(b *testing.B) {
	runFigure(b, "fig8", map[int]string{1: "space-words"})
}

// BenchmarkFig9LandcLando regenerates Figure 9 (error vs space,
// LANDC join LANDO analogs).
func BenchmarkFig9LandcLando(b *testing.B) {
	runFigure(b, "fig9", map[int]string{1: "relerr-sketch", 2: "relerr-eh", 3: "relerr-gh"})
}

// BenchmarkFig10LandcSoil regenerates Figure 10 (LANDC join SOIL).
func BenchmarkFig10LandcSoil(b *testing.B) {
	runFigure(b, "fig10", map[int]string{1: "relerr-sketch", 2: "relerr-eh", 3: "relerr-gh"})
}

// BenchmarkFig11LandoSoil regenerates Figure 11 (LANDO join SOIL).
func BenchmarkFig11LandoSoil(b *testing.B) {
	runFigure(b, "fig11", map[int]string{1: "relerr-sketch", 2: "relerr-eh", 3: "relerr-gh"})
}

// BenchmarkAblationMaxLevel sweeps the Section 6.5 level cap.
func BenchmarkAblationMaxLevel(b *testing.B) {
	runFigure(b, "maxlevel", map[int]string{1: "relerr-sketch"})
}

// BenchmarkAblationStandardVsDyadic compares standard (maxLevel ~ 0) and
// dyadic sketches across interval-length mixes (Section 6.5).
func BenchmarkAblationStandardVsDyadic(b *testing.B) {
	runFigure(b, "standard", map[int]string{1: "relerr-standard", 2: "relerr-dyadic"})
}

// BenchmarkAblationDomainGrowth reproduces the Section 7.1 discussion:
// growing the domain hurts the grids, not the sketch.
func BenchmarkAblationDomainGrowth(b *testing.B) {
	runFigure(b, "domaingrowth", map[int]string{1: "relerr-sketch", 2: "relerr-eh", 3: "relerr-gh"})
}

// BenchmarkEpsJoin measures epsilon-join estimation (Section 6.3).
func BenchmarkEpsJoin(b *testing.B) {
	runFigure(b, "epsjoin", map[int]string{3: "relerr"})
}

// BenchmarkRangeQuery measures range-query estimation (Section 6.4).
func BenchmarkRangeQuery(b *testing.B) {
	runFigure(b, "rangequery", map[int]string{3: "relerr"})
}

// BenchmarkDim3Join measures the dimensionality study (Section 6.1).
func BenchmarkDim3Join(b *testing.B) {
	runFigure(b, "dim3", map[int]string{2: "relerr-sketch"})
}

// BenchmarkUpdateThroughput measures single-object insert cost on a
// production-shaped synopsis (2-d, 1024 instances) - the paper's
// O(log^2 n) update claim in practice.
func BenchmarkUpdateThroughput(b *testing.B) {
	est, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 1 << 16,
		Sizing: spatial.Sizing{Instances: 1024, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rects := datagen.MustRects(datagen.Spec{N: 4096, Dims: 2, Domain: 1 << 16, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.InsertLeft(rects[i%len(rects)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(est.Instances()), "instances")
}

// BenchmarkUpdateThroughputWAL is BenchmarkUpdateThroughput with every
// insert first appended to a write-ahead log (group-committed, no fsync)
// and then applied - the server's order: log, then apply. The acceptance
// gate for the durability layer is <10% regression against the unlogged
// path.
func BenchmarkUpdateThroughputWAL(b *testing.B) {
	est, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 1 << 16,
		Sizing: spatial.Sizing{Instances: 1024, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	w, err := wal.Open(wal.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rects := datagen.MustRects(datagen.Spec{N: 4096, Dims: 2, Domain: 1 << 16, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rects[i%len(rects)]
		rec := spatial.UpdateRecord{Op: spatial.OpInsert, Side: spatial.SideLeft, Rect: r}
		if _, err := w.Append(rec.AppendBinary(nil)); err != nil {
			b.Fatal(err)
		}
		if err := est.InsertLeft(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(est.Instances()), "instances")
}

// BenchmarkBulkLoad measures the parallel bulk-load path.
func BenchmarkBulkLoad(b *testing.B) {
	rects := datagen.MustRects(datagen.Spec{N: 8192, Dims: 2, Domain: 1 << 16, Seed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := spatial.NewJoinEstimator(spatial.JoinConfig{
			Dims: 2, DomainSize: 1 << 16,
			Sizing: spatial.Sizing{Instances: 512, Groups: 8},
			Seed:   uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := est.InsertLeftBulk(rects); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(rects)))
}

// BenchmarkInsertParallel measures the shard-and-merge bulk loader on a
// fixed estimator: rects are split across workers into private counter
// shards merged by addition. Run with -cpu 1,4 to see the scaling; the
// result is bit-identical to sequential inserts at any worker count.
func BenchmarkInsertParallel(b *testing.B) {
	rects := datagen.MustRects(datagen.Spec{N: 4096, Dims: 2, Domain: 1 << 16, Seed: 7})
	est, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 1 << 16,
		Sizing: spatial.Sizing{Instances: 512, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rects)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.InsertLeftBulk(rects); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimate measures steady-state estimate cost on a multi-shard
// estimator - the epoch-cached read path: a repeated estimate on an
// unchanged estimator is a view pointer load plus a memo hit (0 allocs/op),
// where it used to fold O(shards * counters) words per query.
func BenchmarkEstimate(b *testing.B) {
	defer spatial.SetIngestShardsForTest(4)()
	est, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 1 << 12,
		Sizing: spatial.Sizing{Instances: 4096, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := datagen.MustRects(datagen.Spec{N: 512, Dims: 2, Domain: 1 << 12, Seed: 4})
	s := datagen.MustRects(datagen.Spec{N: 512, Dims: 2, Domain: 1 << 12, Seed: 5})
	if err := est.InsertLeftBulk(r); err != nil {
		b.Fatal(err)
	}
	if err := est.InsertRightBulk(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Cardinality(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateCold measures the estimate cost when every query runs
// the kernel (the view memo is bypassed by alternating between the strict
// estimate and the left self-join) - the pooled-kernel path without result
// reuse.
func BenchmarkEstimateCold(b *testing.B) {
	defer spatial.SetIngestShardsForTest(4)()
	est, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 1 << 12,
		Sizing: spatial.Sizing{Instances: 4096, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := datagen.MustRects(datagen.Spec{N: 512, Dims: 2, Domain: 1 << 12, Seed: 4})
	if err := est.InsertLeftBulk(r); err != nil {
		b.Fatal(err)
	}
	if err := est.InsertRightBulk(r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.InsertLeft(r[i%len(r)]); err != nil { // invalidate the view
			b.Fatal(err)
		}
		if _, err := est.Cardinality(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateParallel runs RunParallel readers against a live writer
// on a multi-shard estimator: the number to watch is allocs/op and the
// read latency under constant view invalidation (single-flight rebuilds).
func BenchmarkEstimateParallel(b *testing.B) {
	defer spatial.SetIngestShardsForTest(4)()
	est, err := spatial.NewJoinEstimator(spatial.JoinConfig{
		Dims: 2, DomainSize: 1 << 12,
		Sizing: spatial.Sizing{Instances: 1024, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rects := datagen.MustRects(datagen.Spec{N: 1024, Dims: 2, Domain: 1 << 12, Seed: 4})
	if err := est.InsertLeftBulk(rects); err != nil {
		b.Fatal(err)
	}
	if err := est.InsertRightBulk(rects); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var writeErr atomic.Pointer[error]
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := est.InsertLeft(rects[i%len(rects)]); err != nil {
				writeErr.Store(&err)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := est.Cardinality(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	if errp := writeErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
}

// BenchmarkRangeEstimate measures steady-state range estimation on a
// multi-shard estimator: a repeated hot query hits the per-view memo.
func BenchmarkRangeEstimate(b *testing.B) {
	defer spatial.SetIngestShardsForTest(4)()
	re, err := spatial.NewRangeEstimator(spatial.RangeConfig{
		Dims: 1, DomainSize: 1 << 16,
		Sizing: spatial.Sizing{Instances: 2048, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rects := datagen.MustRects(datagen.Spec{N: 2048, Dims: 1, Domain: 1 << 16, Seed: 6})
	if err := re.InsertBulk(rects); err != nil {
		b.Fatal(err)
	}
	q := geo.Span1D(1000, 30000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := re.Estimate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeEstimateCold cycles distinct queries so every estimate
// misses the single-entry memo and runs the pooled kernel on the cached
// view - per-query cost with scratch reuse but no result reuse.
func BenchmarkRangeEstimateCold(b *testing.B) {
	defer spatial.SetIngestShardsForTest(4)()
	re, err := spatial.NewRangeEstimator(spatial.RangeConfig{
		Dims: 1, DomainSize: 1 << 16,
		Sizing: spatial.Sizing{Instances: 2048, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rects := datagen.MustRects(datagen.Spec{N: 2048, Dims: 1, Domain: 1 << 16, Seed: 6})
	if err := re.InsertBulk(rects); err != nil {
		b.Fatal(err)
	}
	qs := make([]geo.HyperRect, 64)
	for i := range qs {
		qs[i] = geo.Span1D(uint64(500*i), uint64(500*i+29000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := re.Estimate(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeEstimateBatch answers the same query mix through the
// batched API: one pinned view and one kernel scratch for the whole batch.
func BenchmarkRangeEstimateBatch(b *testing.B) {
	defer spatial.SetIngestShardsForTest(4)()
	re, err := spatial.NewRangeEstimator(spatial.RangeConfig{
		Dims: 1, DomainSize: 1 << 16,
		Sizing: spatial.Sizing{Instances: 2048, Groups: 8},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rects := datagen.MustRects(datagen.Spec{N: 2048, Dims: 1, Domain: 1 << 16, Seed: 6})
	if err := re.InsertBulk(rects); err != nil {
		b.Fatal(err)
	}
	qs := make([]geo.HyperRect, 64)
	for i := range qs {
		qs[i] = geo.Span1D(uint64(500*i), uint64(500*i+29000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := re.EstimateBatch(qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)), "queries/op")
}
