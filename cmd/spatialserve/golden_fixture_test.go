package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wal"
)

// goldenDataDir is a data directory written by an older build (see its
// README): one checkpoint, a WAL suffix holding every record op, and a
// saved partition map with one override.
const goldenDataDir = "testdata/golden-datadir"

// What recovery must rebuild from the golden data dir: every estimator's
// snapshot SHA-256, the session marks and the tenant configs. A replica
// bootstrapped from a leader that recovered it must hold the same
// (TestReplicaBootstrapGoldenDataDir).
var (
	goldenDigests = map[string]string{
		"acme/e": "fabb4e8a31714c4525a0ab2233ca91de9c2258fda09eba19a8beceab5bea4615",
		"c":      "8fee66312a942c6d2fa8147a350d27821f2162f285ea8dfac876b7403b133d2a",
		"j":      "498835368677508f42138086ec7ec6db362e0b10b66d8c9e4af9113a0d5d6add",
		"p":      "23eee44459643e50a2263133f2f90f2c6d9276d904d91aff4efa31a02d3c53ae",
		"r":      "3630537c26a7c46d4b338fff664e0a75389b9211246ad1da751a6ca83ab4611d",
	}
	goldenMarks = []sessionMark{
		{Session: "writer", Estimator: "c", Seq: 2},
		{Session: "idem:k1", Estimator: "r", Seq: 1},
	}
	goldenTenants = map[string]TenantConfig{"acme": {MemoryBudgetWords: 1 << 20, RateQPS: 500, MaxInflight: 16}}
)

// TestGoldenDataDirReplays boots a persistent cluster node on a copy of
// the golden data directory and pins what recovery must rebuild from it:
// every estimator's snapshot bytes, the session marks, the tenant configs
// and the saved override. A change to the WAL, manifest or snapshot
// readers that stops old bytes from replaying identically fails here.
func TestGoldenDataDirReplays(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(goldenDataDir)); err != nil {
		t.Fatal(err)
	}

	// The fixture is only a guard if its suffix really holds every op,
	// including walOpUpdate records of more than one and of one record.
	p := &persister{opts: PersistOptions{DataDir: dir}}
	m, err := p.readManifest()
	if err != nil || m == nil {
		t.Fatalf("reading the fixture manifest: %v", err)
	}
	ops := map[byte]int{}
	updateCounts := map[uint64]bool{}
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, walSubdir)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.ReadFrom(wal.Pos{Seg: m.WALSegment, Off: m.WALOffset}, 0, func(pos wal.Pos, payload []byte) error {
		op, _, rest, err := parseWalPayload(payload)
		if err != nil {
			return err
		}
		ops[op]++
		if op == walOpUpdate {
			updateCounts[uint64(rest[0])] = true
		}
		return nil
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	for op := walOpCreate; op <= walOpSessionDrop; op++ {
		if ops[op] == 0 {
			t.Errorf("fixture WAL suffix holds no op %d record", op)
		}
	}
	if !updateCounts[1] || !updateCounts[3] {
		t.Errorf("fixture walOpUpdate record counts %v, want both 1 and 3", updateCounts)
	}

	s, err := NewPersistentServer(PersistOptions{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	flags := &cluster.Map{Version: 1, Nodes: []cluster.Node{
		{ID: "n0", URL: "http://127.0.0.1:1"},
		{ID: "n1", URL: "http://127.0.0.1:2"},
		{ID: "n2", URL: "http://127.0.0.1:3"},
	}}
	if err := s.EnableCluster(ClusterOptions{SelfID: "n0", Map: flags, Partitions: 4}); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	s.mu.RLock()
	for name, est := range s.ests {
		data, err := est.snapshot()
		if err != nil {
			s.mu.RUnlock()
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got[name] = hex.EncodeToString(sum[:])
	}
	s.mu.RUnlock()
	if !reflect.DeepEqual(got, goldenDigests) {
		t.Errorf("recovered snapshot digests\n got %v\nwant %v", got, goldenDigests)
	}

	if marks := s.sessions.export(); !reflect.DeepEqual(marks, goldenMarks) {
		t.Errorf("recovered session marks %+v, want %+v", marks, goldenMarks)
	}
	if tenants := s.tenants.configs(); !reflect.DeepEqual(tenants, goldenTenants) {
		t.Errorf("recovered tenant configs %+v, want %+v", tenants, goldenTenants)
	}
	pm := s.cluster.map_()
	if pm.Version != 2 || !reflect.DeepEqual(pm.Overrides, map[string]string{"j#1": "n2"}) {
		t.Errorf("saved map: version %d overrides %v, want version 2 with j#1 -> n2", pm.Version, pm.Overrides)
	}
}
