package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openPersistent opens a persistent server rooted at dir with background
// checkpoints disabled (tests drive checkpoints explicitly).
func openPersistent(t testing.TB, dir string) *Server {
	t.Helper()
	s, err := NewPersistentServer(PersistOptions{
		DataDir: dir,
		Logf:    func(format string, args ...any) { t.Logf(format, args...) },
	})
	if err != nil {
		t.Fatalf("opening persistent server: %v", err)
	}
	return s
}

// crash simulates a process crash: the WAL is released (as the kernel
// would on SIGKILL) but no checkpoint or graceful flush runs.
func crash(t testing.TB, s *Server) {
	t.Helper()
	if err := s.persist.close(true); err != nil {
		t.Fatalf("crash-closing: %v", err)
	}
}

// snapshotOf fetches the binary SPE1 snapshot of one estimator.
func snapshotOf(t testing.TB, s *Server, name string) []byte {
	t.Helper()
	w := do(t, s, "GET", "/v1/estimators/"+name+"/snapshot", nil)
	mustStatus(t, w, http.StatusOK)
	return w.Body.Bytes()
}

// seedAllKinds creates one estimator of each kind and streams a mixed
// insert/delete workload at it, returning the estimator names.
func seedAllKinds(t testing.TB, s *Server, dom uint64) []string {
	t.Helper()
	for _, c := range []createRequest{
		{Name: "j", Kind: "join", Config: configRequest{Dims: 2, DomainSize: dom, Seed: 1, Instances: 64, Groups: 4}},
		{Name: "r", Kind: "range", Config: configRequest{Dims: 1, DomainSize: dom, Seed: 2, Instances: 64, Groups: 4}},
		{Name: "e", Kind: "epsjoin", Config: configRequest{Dims: 2, DomainSize: dom, Eps: 8, Seed: 3, Instances: 64, Groups: 4}},
		{Name: "c", Kind: "containment", Config: configRequest{Dims: 2, DomainSize: dom, Seed: 4, Instances: 64, Groups: 4}},
	} {
		body, _ := json.Marshal(c)
		mustStatus(t, do(t, s, "POST", "/v1/estimators", body), http.StatusCreated)
	}
	rng := rand.New(rand.NewSource(11))
	var rects [][][2]uint64
	var spans [][][2]uint64 // 1-d objects for the range estimator
	var pts [][]uint64
	for i := 0; i < 32; i++ {
		rects = append(rects, randRect(rng, dom))
		spans = append(spans, [][2]uint64{randRect(rng, dom)[0]})
		pts = append(pts, []uint64{rng.Uint64() % dom, rng.Uint64() % dom})
	}
	mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update", updateBody(t, "left", rects)), http.StatusOK)
	mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update", updateBody(t, "right", rects[:16])), http.StatusOK)
	mustStatus(t, do(t, s, "POST", "/v1/estimators/r/update", updateBody(t, "", spans[:20])), http.StatusOK)
	mustStatus(t, do(t, s, "POST", "/v1/estimators/c/update", updateBody(t, "inner", rects[:12])), http.StatusOK)
	mustStatus(t, do(t, s, "POST", "/v1/estimators/c/update", updateBody(t, "outer", rects[12:24])), http.StatusOK)
	for _, side := range []string{"left", "right"} {
		b, _ := json.Marshal(updateRequest{Side: side, Points: pts})
		mustStatus(t, do(t, s, "POST", "/v1/estimators/e/update", b), http.StatusOK)
	}
	// Deletes must be logged and replayed too.
	b, _ := json.Marshal(updateRequest{Op: "delete", Side: "left", Rects: rects[:3]})
	mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update", b), http.StatusOK)
	b, _ = json.Marshal(updateRequest{Op: "delete", Rects: spans[:2]})
	mustStatus(t, do(t, s, "POST", "/v1/estimators/r/update", b), http.StatusOK)
	return []string{"j", "r", "e", "c"}
}

// TestPersistCrashRecoveryAllKinds crashes a WAL-only server (no
// checkpoint ever ran) and verifies every estimator kind recovers
// bit-identically: the snapshot bytes after restart equal the snapshot
// bytes the live server produced, for join, range, epsilon-join and
// containment estimators.
func TestPersistCrashRecoveryAllKinds(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)
	names := seedAllKinds(t, s, 1<<12)
	want := make(map[string][]byte)
	for _, n := range names {
		want[n] = snapshotOf(t, s, n)
	}
	crash(t, s)

	s2 := openPersistent(t, dir)
	defer s2.Close()
	for _, n := range names {
		if got := snapshotOf(t, s2, n); !bytes.Equal(got, want[n]) {
			t.Errorf("estimator %q: snapshot after crash recovery differs from the live snapshot", n)
		}
	}
}

// TestPersistCheckpointPlusSuffix checkpoints mid-stream (the cut lands
// mid-segment), keeps writing, crashes, and verifies recovery is
// checkpoint + replayed suffix with no record double-applied and no
// record lost.
func TestPersistCheckpointPlusSuffix(t *testing.T) {
	dir := t.TempDir()
	const dom = 1 << 12
	s := openPersistent(t, dir)
	createJoin(t, s, "j", dom)
	rng := rand.New(rand.NewSource(21))
	var pre, post [][][2]uint64
	for i := 0; i < 40; i++ {
		pre = append(pre, randRect(rng, dom))
		post = append(post, randRect(rng, dom))
	}
	mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update", updateBody(t, "left", pre)), http.StatusOK)

	w := do(t, s, "POST", "/admin/checkpoint", nil)
	mustStatus(t, w, http.StatusOK)
	var res checkpointResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Estimators != 1 || res.Seq != 1 {
		t.Fatalf("checkpoint result %+v", res)
	}
	// A second checkpoint with nothing new logged is a no-op at the same
	// cut.
	w = do(t, s, "POST", "/admin/checkpoint", nil)
	mustStatus(t, w, http.StatusOK)
	var res2 checkpointResult
	json.Unmarshal(w.Body.Bytes(), &res2)
	if res2.Seq != res.Seq || res2.WALSegment != res.WALSegment || res2.WALOffset != res.WALOffset {
		t.Fatalf("idle checkpoint moved the cut: %+v -> %+v", res, res2)
	}

	mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update", updateBody(t, "right", post)), http.StatusOK)
	want := snapshotOf(t, s, "j")
	crash(t, s)

	s2 := openPersistent(t, dir)
	if got := snapshotOf(t, s2, "j"); !bytes.Equal(got, want) {
		t.Error("checkpoint + suffix recovery is not bit-identical to the live state")
	}
	// Counts prove idempotence: the 40 pre-checkpoint inserts must appear
	// once (in the checkpoint), not once more from the log.
	w = do(t, s2, "GET", "/v1/estimators/j", nil)
	var info infoResponse
	json.Unmarshal(w.Body.Bytes(), &info)
	if info.Counts["left"] != 40 || info.Counts["right"] != 40 {
		t.Fatalf("counts after recovery: %+v (checkpointed records double-applied or lost)", info.Counts)
	}
	crash(t, s2)

	// A second recovery from the same files is just as deterministic.
	s3 := openPersistent(t, dir)
	defer s3.Close()
	if got := snapshotOf(t, s3, "j"); !bytes.Equal(got, want) {
		t.Error("second recovery differs from the first")
	}
}

// TestPersistRegistryOpsSurvive covers the logged registry mutations:
// delete, snapshot PUT (replace), merge, and re-create after delete.
func TestPersistRegistryOpsSurvive(t *testing.T) {
	dir := t.TempDir()
	const dom = 1 << 12
	s := openPersistent(t, dir)
	createJoin(t, s, "a", dom)
	createJoin(t, s, "doomed", dom)
	rng := rand.New(rand.NewSource(5))
	var rects [][][2]uint64
	for i := 0; i < 16; i++ {
		rects = append(rects, randRect(rng, dom))
	}
	mustStatus(t, do(t, s, "POST", "/v1/estimators/a/update", updateBody(t, "left", rects)), http.StatusOK)
	// Merge a's snapshot into itself (doubles counts) - merges are logged.
	snap := snapshotOf(t, s, "a")
	mustStatus(t, do(t, s, "POST", "/v1/estimators/a/merge", snap), http.StatusOK)
	// PUT the snapshot under a fresh name - restores are logged.
	mustStatus(t, do(t, s, "PUT", "/v1/estimators/b/snapshot", snap), http.StatusOK)
	// Updates applied to a PUT-restored estimator are logged by the write path.
	mustStatus(t, do(t, s, "POST", "/v1/estimators/b/update", updateBody(t, "right", rects[:4])), http.StatusOK)
	// Delete and re-create under the same name with a different config.
	mustStatus(t, do(t, s, "DELETE", "/v1/estimators/doomed", nil), http.StatusOK)
	body, _ := json.Marshal(createRequest{Name: "doomed", Kind: "range",
		Config: configRequest{Dims: 1, DomainSize: dom, Seed: 9, Instances: 32, Groups: 4}})
	mustStatus(t, do(t, s, "POST", "/v1/estimators", body), http.StatusCreated)
	mustStatus(t, do(t, s, "POST", "/v1/estimators/doomed/update",
		updateBody(t, "", [][][2]uint64{{{5, 100}}})), http.StatusOK)

	want := map[string][]byte{}
	for _, n := range []string{"a", "b", "doomed"} {
		want[n] = snapshotOf(t, s, n)
	}
	crash(t, s)

	s2 := openPersistent(t, dir)
	defer s2.Close()
	for n, snap := range want {
		if got := snapshotOf(t, s2, n); !bytes.Equal(got, snap) {
			t.Errorf("estimator %q: post-recovery snapshot differs", n)
		}
	}
	w := do(t, s2, "GET", "/v1/estimators/a", nil)
	var info infoResponse
	json.Unmarshal(w.Body.Bytes(), &info)
	if info.Counts["left"] != 32 {
		t.Fatalf("merged count after recovery = %d, want 32", info.Counts["left"])
	}
}

// TestPersistCheckpointRacingWriters checkpoints continuously while
// writers hammer updates, then recovers and verifies the final state is
// bit-identical to the live server's - the cut gate must never let a
// checkpoint split an update between snapshot and replayed suffix.
// Meaningful under -race.
func TestPersistCheckpointRacingWriters(t *testing.T) {
	dir := t.TempDir()
	const dom = 1 << 12
	s := openPersistent(t, dir)
	createJoin(t, s, "mix", dom)

	const workers = 4
	iters := 40
	if testing.Short() {
		iters = 15
	}
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if _, err := s.persist.checkpoint(context.Background()); err != nil {
				t.Errorf("racing checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			side := "left"
			if g%2 == 1 {
				side = "right"
			}
			for i := 0; i < iters; i++ {
				w := do(nil, s, "POST", "/v1/estimators/mix/update",
					updateBody(t, side, [][][2]uint64{randRect(rng, dom), randRect(rng, dom)}))
				if w.Code != http.StatusOK {
					t.Errorf("update: %d %s", w.Code, w.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopCkpt)
	ckptWG.Wait()
	if t.Failed() {
		return
	}
	want := snapshotOf(t, s, "mix")
	crash(t, s)

	s2 := openPersistent(t, dir)
	defer s2.Close()
	if got := snapshotOf(t, s2, "mix"); !bytes.Equal(got, want) {
		t.Error("recovery after racing checkpoints is not bit-identical")
	}
	w := do(t, s2, "GET", "/v1/estimators/mix", nil)
	var info infoResponse
	json.Unmarshal(w.Body.Bytes(), &info)
	if total := info.Counts["left"] + info.Counts["right"]; total != int64(workers*iters*2) {
		t.Fatalf("recovered %d objects, want %d", total, workers*iters*2)
	}
}

// TestPersistCheckpointTruncatesWAL verifies segments wholly before the
// checkpoint cut are removed once the checkpoint is durable.
func TestPersistCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	const dom = 1 << 12
	s, err := NewPersistentServer(PersistOptions{
		DataDir:      dir,
		SegmentBytes: 512, // tiny segments so the workload rotates
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	createJoin(t, s, "j", dom)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update",
			updateBody(t, "left", [][][2]uint64{randRect(rng, dom)})), http.StatusOK)
	}
	segsBefore := countSegments(t, dir)
	if segsBefore < 2 {
		t.Fatalf("workload produced %d segments, want rotation", segsBefore)
	}
	mustStatus(t, do(t, s, "POST", "/admin/checkpoint", nil), http.StatusOK)
	if after := countSegments(t, dir); after != 1 {
		t.Fatalf("%d segments after checkpoint, want 1 (the one holding the cut)", after)
	}
	want := snapshotOf(t, s, "j")
	crash(t, s)
	s2 := openPersistent(t, dir)
	defer s2.Close()
	if got := snapshotOf(t, s2, "j"); !bytes.Equal(got, want) {
		t.Error("recovery after truncation is not bit-identical")
	}
}

func countSegments(t *testing.T, dataDir string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, walSubdir))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			n++
		}
	}
	return n
}

// TestPersistGracefulShutdown verifies Close checkpoints, so a restart
// needs no WAL replay and still matches bit-identically.
func TestPersistGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)
	names := seedAllKinds(t, s, 1<<12)
	want := make(map[string][]byte)
	for _, n := range names {
		want[n] = snapshotOf(t, s, n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	// Close is idempotent: the deferred-Close-plus-explicit-Close pattern
	// must not surface a spurious already-closed error.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	m, err := (&persister{opts: PersistOptions{DataDir: dir}}).readManifest()
	if err != nil || m == nil {
		t.Fatalf("graceful shutdown left no manifest (err %v)", err)
	}
	if len(m.Estimators) != len(names) {
		t.Fatalf("manifest holds %d estimators, want %d", len(m.Estimators), len(names))
	}
	s2 := openPersistent(t, dir)
	defer s2.Close()
	for _, n := range names {
		if got := snapshotOf(t, s2, n); !bytes.Equal(got, want[n]) {
			t.Errorf("estimator %q differs after graceful restart", n)
		}
	}
}

// TestPersistRecoveryRefusesDamagedLog damages the WAL after a
// checkpoint cut in ways recovery cannot repair - a corrupt record in a
// non-final segment, a segment missing between the cut and the end, a
// cut older than the oldest segment, a non-final segment shorter than its
// header, and a cut past the end of its (non-final) segment - and
// requires each data dir to fail to open
// rather than recover a state that silently lacks records. The undamaged
// dir recovers.
func TestPersistRecoveryRefusesDamagedLog(t *testing.T) {
	segFile := func(dir string, seq uint64) string {
		return filepath.Join(dir, walSubdir, fmt.Sprintf("%016x.wal", seq))
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, cut uint64)
	}{
		{"intact", func(*testing.T, string, uint64) {}},
		{"corrupt-non-final-segment", func(t *testing.T, dir string, cut uint64) {
			path := segFile(dir, cut+1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[16+8+2] ^= 0xff // a payload byte of the segment's first record
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing-segment", func(t *testing.T, dir string, cut uint64) {
			if err := os.Remove(segFile(dir, cut+1)); err != nil {
				t.Fatal(err)
			}
		}},
		{"cut-before-oldest-segment", func(t *testing.T, dir string, cut uint64) {
			if err := os.Remove(segFile(dir, cut)); err != nil {
				t.Fatal(err)
			}
		}},
		{"segment-below-its-header", func(t *testing.T, dir string, cut uint64) {
			if err := os.Truncate(segFile(dir, cut+1), 5); err != nil {
				t.Fatal(err)
			}
		}},
		{"cut-past-segment-end", func(t *testing.T, dir string, cut uint64) {
			if err := os.Truncate(segFile(dir, cut), 16); err != nil { // keep only the header
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const dom = 1 << 12
			s, err := NewPersistentServer(PersistOptions{DataDir: dir, SegmentBytes: 512, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			createJoin(t, s, "j", dom)
			rng := rand.New(rand.NewSource(5))
			update := func() {
				mustStatus(t, do(t, s, "POST", "/v1/estimators/j/update",
					updateBody(t, "left", [][][2]uint64{randRect(rng, dom)})), http.StatusOK)
			}
			for i := 0; i < 10; i++ {
				update()
			}
			var res checkpointResult
			if err := json.Unmarshal(do(t, s, "POST", "/admin/checkpoint", nil).Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				update()
			}
			if last := s.persist.w.Pos().Seg; last < res.WALSegment+2 {
				t.Fatalf("the log ends in segment %d, want two or more after the cut's %d", last, res.WALSegment)
			}
			crash(t, s)
			tc.damage(t, dir, res.WALSegment)
			s2, err := NewPersistentServer(PersistOptions{DataDir: dir, Logf: t.Logf})
			if tc.name == "intact" {
				if err != nil {
					t.Fatalf("the undamaged data dir failed to open: %v", err)
				}
				s2.Close()
				return
			}
			if err == nil {
				s2.Close()
				t.Fatal("recovery opened a data dir with a damaged log")
			}
			t.Logf("refused: %v", err)
		})
	}
}

// TestInMemoryNodeChecksBinding checks that a node without a WAL
// re-checks an estimator's binding under the mutation gate as a durable
// one does: a mutation of an estimator replaced since its lookup is
// refused, and never runs against the discarded object.
func TestInMemoryNodeChecksBinding(t *testing.T) {
	s := NewServer()
	createJoin(t, s, "j", 1<<10)
	old, ok := s.lookup("j")
	if !ok {
		t.Fatal("no estimator j")
	}
	mustStatus(t, do(t, s, "PUT", "/v1/estimators/j/snapshot", snapshotOf(t, s, "j")), http.StatusOK)
	ran := false
	err := s.withEstimator("j", old, func() error { ran = true; return nil })
	if !errors.Is(err, errStaleBinding) || ran {
		t.Fatalf("withEstimator on a replaced estimator: err %v, fn ran %v; want errStaleBinding without running fn", err, ran)
	}
}

// TestInMemoryReplaceFreezesOldEstimator races updates against snapshot
// PUTs that replace their estimator on a node without a WAL. Every
// update answers 200 or the retryable 409, and once a PUT has answered,
// no update lands on the object it replaced: that object's write version
// never moves again. Meaningful under -race.
func TestInMemoryReplaceFreezesOldEstimator(t *testing.T) {
	s := NewServer()
	const dom = 1 << 10
	createJoin(t, s, "j", dom)
	snap := snapshotOf(t, s, "j")
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				w := do(nil, s, "POST", "/v1/estimators/j/update", updateBody(t, "left", [][][2]uint64{randRect(rng, dom)}))
				if w.Code != http.StatusOK && w.Code != http.StatusConflict {
					errs <- fmt.Sprintf("update: %d %s", w.Code, w.Body.String())
					return
				}
			}
		}(g)
	}
	type frozen struct {
		est     servable
		version uint64
	}
	var replaced []frozen
	for i := 0; i < 200; i++ {
		old, _ := s.lookup("j")
		mustStatus(t, do(t, s, "PUT", "/v1/estimators/j/snapshot", snap), http.StatusOK)
		replaced = append(replaced, frozen{old, old.version()})
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for i, f := range replaced {
		if v := f.est.version(); v != f.version {
			t.Fatalf("replacement %d: the replaced estimator took writes after its PUT answered (version %d -> %d)", i, f.version, v)
		}
	}
}

// TestAdminCheckpointWithoutPersistence answers 409.
func TestAdminCheckpointWithoutPersistence(t *testing.T) {
	s := NewServer()
	mustStatus(t, do(t, s, "POST", "/admin/checkpoint", nil), http.StatusConflict)
}

// BenchmarkServeMixedWAL is BenchmarkServeMixed with durability enabled
// at -fsync=false: the acceptance gate is <10% regression, group commit
// keeping the log off the sharded-ingest hot path.
func BenchmarkServeMixedWAL(b *testing.B) {
	s, err := NewPersistentServer(PersistOptions{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchServeMixed(b, s)
}

// benchServeMixed drives the shared mixed workload (75% inserts, 20%
// estimates, 5% snapshots) through h from parallel clients.
func benchServeMixed(b *testing.B, h http.Handler) {
	const dom = 1 << 16
	body, _ := json.Marshal(createRequest{
		Name: "bench", Kind: "join",
		Config: configRequest{Dims: 2, DomainSize: dom, Seed: 1, Instances: 512, Groups: 8},
	})
	mustStatus(b, do(b, h, "POST", "/v1/estimators", body), http.StatusCreated)
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 256)
	for i := range bodies {
		side := "left"
		if i%2 == 1 {
			side = "right"
		}
		bodies[i] = updateBody(b, side, [][][2]uint64{randRect(rng, dom)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			switch {
			case i%20 == 0: // 5% snapshots
				if w := do(nil, h, "GET", "/v1/estimators/bench/snapshot", nil); w.Code != http.StatusOK {
					b.Fatalf("snapshot: %d", w.Code)
				}
			case i%5 == 0: // 20% estimates
				if w := do(nil, h, "GET", "/v1/estimators/bench/estimate", nil); w.Code != http.StatusOK {
					b.Fatalf("estimate: %d", w.Code)
				}
			default: // 75% inserts
				if w := do(nil, h, "POST", "/v1/estimators/bench/update", bodies[i%len(bodies)]); w.Code != http.StatusOK {
					b.Fatalf("update: %d %s", w.Code, w.Body.String())
				}
			}
		}
	})
}

// TestWriteManifestMatchesEncoder: the checkpoint writes a manifest's
// session marks one at a time, and the bytes must be json.Encoder's, so
// every reader of a MANIFEST (recovery, older builds) reads the same
// file.
func TestWriteManifestMatchesEncoder(t *testing.T) {
	base := manifest{Version: manifestVersion, Seq: 7, WALSegment: 3, WALOffset: 4096,
		Estimators: []manifestEntry{{Name: "j#1", File: "est-7-0.spe1"}, {Name: "acme/r", File: "est-7-1.spe1"}},
		Tenants:    map[string]TenantConfig{"acme": {MemoryBudgetWords: 1 << 20}}}
	for _, marks := range [][]sessionMark{
		nil,
		{{Session: "writer-1", Estimator: "j#1", Seq: 42}},
		{{Session: "idem:a<b>&\"c\"", Estimator: "j#1", Seq: 1}, {Session: "w é", Estimator: "acme/r", Seq: 1 << 40}},
	} {
		m := base
		m.Sessions = marks
		var want, got bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&m); err != nil {
			t.Fatal(err)
		}
		if err := writeManifest(&got, &m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d marks:\n got %s\nwant %s", len(marks), got.Bytes(), want.Bytes())
		}
	}
}
