package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildServe compiles the spatialserve binary the harness drives.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spatialserve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/spatialserve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building spatialserve: %v\n%s", err, out)
	}
	return bin
}

// TestLoadHarnessScriptedRun is the harness's acceptance gate: a 3-node
// cluster driven through steady-state, rebalance-under-load,
// SIGKILL-failover-with-promote and steady-state again on the promoted
// replica, with the byte-exactness oracle run after every phase. The
// counts prove each phase carried traffic, so a green oracle checked
// something; the repeated phase name proves a phase's idempotency keys
// and stream sessions never collide with an earlier phase's.
func TestLoadHarnessScriptedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process load run in -short mode")
	}
	bin := buildServe(t)
	phases, err := parseScenario("steady:2s,rebalance:3s,failover:4s,steady:2s")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	counts, err := runLoad(Config{
		Binary:   bin,
		DataRoot: t.TempDir(),
		Seed:     42,
		Phases:   phases,
		Log:      testWriter{t},
		Stderr:   os.Stderr,
	})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	t.Logf("run completed in %v", time.Since(start))
	if len(counts) != len(phases) {
		t.Fatalf("got counts for %d phases, want %d", len(counts), len(phases))
	}
	// Every phase must have acked updates and answered estimates, and the
	// steady phase must have streamed batches (sessions survive the
	// failover cut-over via a Flush-drain before the SIGKILL).
	for _, c := range counts {
		if c.updates.Load() == 0 || c.estimates.Load() == 0 {
			t.Errorf("%v: a phase without updates or estimates checks nothing", c)
		}
	}
	if counts[0].batches.Load() == 0 {
		t.Errorf("%v: no stream batches", counts[0])
	}
}

// TestParseScenario pins the scenario mini-language.
func TestParseScenario(t *testing.T) {
	phases, err := parseScenario("steady:1s, rebalance:6s,failover:3s")
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	if phases[0].Rebalance != 0 || phases[0].Failover {
		t.Errorf("steady phase carries control events: %+v", phases[0])
	}
	if phases[1].Rebalance != 3 {
		t.Errorf("rebalance moves = %d, want 3 (6s / 2s)", phases[1].Rebalance)
	}
	if !phases[2].Failover {
		t.Error("failover flag not set")
	}
	for _, bad := range []string{"", "warp:1s", "ramp:2s", "steady", "steady:xx"} {
		if _, err := parseScenario(bad); err == nil {
			t.Errorf("parseScenario(%q) accepted", bad)
		}
	}
}

// testWriter adapts t.Logf for the harness's progress log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
