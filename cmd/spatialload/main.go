// Command spatialload is the scripted cluster fault harness: it brings
// up a real 3-node spatialserve cluster (separate processes, real WALs,
// real sockets), drives it with mixed traffic - JSON updates with
// Idempotency-Key retry safety, spatial-ingest/1 streaming sessions,
// single and batched estimates across all four estimator kinds, two
// tenants, zipf hot-key skew - through a scripted scenario of phases
// (steady-state, rebalance-under-load, SIGKILL-failover with replica
// promote), and verifies the paper's exactness claim after every phase:
// the merged cluster snapshot of every estimator on every node must be
// byte-identical to an in-process loss-free replay of exactly the acked
// mutations (the TestChaosSoak oracle, scriptable).
//
// It measures no latency: the repository benchmark (perfbench/) does.
// What it prints is each phase's op counts, so a run that did nothing
// cannot pass for a run that checked something.
//
// Usage:
//
//	go build -o /tmp/spatialserve ./cmd/spatialserve
//	spatialload -binary /tmp/spatialserve \
//	    -scenario steady:10s,rebalance:20s,failover:20s -seed 1
//
// Exit status is non-zero if any phase fails or the oracle finds a
// single byte of divergence.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// The run's fixed shape: three nodes exercise real fan-out and leave two
// survivors for the failover phase; the scenario and the seed are the
// only knobs.
const (
	nodes           = 3
	partitions      = 4
	updateWorkers   = 4
	streamWorkers   = 2
	estimateWorkers = 4
	batchSize       = 32      // records per streaming batch
	zipfS           = 1.2     // skew over targets (hot keys)
	dom             = 1 << 12 // domain size per dimension
)

// Config parameterizes one load run. Exposed so the smoke test drives
// runLoad directly.
type Config struct {
	// Binary is the spatialserve executable to launch nodes from.
	Binary string
	// DataRoot holds the per-node data directories.
	DataRoot string
	// Seed makes the workload deterministic per worker.
	Seed int64
	// Phases is the scripted scenario.
	Phases []Phase
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Stderr, when non-nil, receives the server processes' stderr.
	Stderr io.Writer
}

// phaseCounts is what one phase did: the updates and stream batches the
// cluster acknowledged and the estimates it answered.
type phaseCounts struct {
	name                        string
	updates, batches, estimates atomic.Int64
}

// String renders the counts as one summary line.
func (c *phaseCounts) String() string {
	return fmt.Sprintf("phase %s: %d updates, %d stream batches, %d estimates",
		c.name, c.updates.Load(), c.batches.Load(), c.estimates.Load())
}

func main() {
	fs := flag.NewFlagSet("spatialload", flag.ExitOnError)
	binary := fs.String("binary", "", "path to the spatialserve binary (required)")
	scenario := fs.String("scenario", "steady:10s,rebalance:10s", "comma-separated phase:duration list (steady|rebalance|failover)")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(os.Args[1:])

	if *binary == "" {
		fmt.Fprintln(os.Stderr, "spatialload: -binary is required")
		os.Exit(2)
	}
	phases, err := parseScenario(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spatialload: %v\n", err)
		os.Exit(2)
	}
	dataRoot, err := os.MkdirTemp("", "spatialload-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "spatialload: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dataRoot)

	counts, err := runLoad(Config{
		Binary:   *binary,
		DataRoot: dataRoot,
		Seed:     *seed,
		Phases:   phases,
		Log:      os.Stderr,
		Stderr:   os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spatialload: %v\n", err)
		os.RemoveAll(dataRoot)
		os.Exit(1)
	}
	for _, c := range counts {
		fmt.Println(c)
	}
}

// runLoad executes one full load run: cluster up, targets created,
// phases executed (each ending in quiesce + oracle pass). It returns
// each phase's op counts; the cluster is torn down before return.
func runLoad(cfg Config) ([]*phaseCounts, error) {
	cl, err := cluster.LaunchProcCluster(cluster.ProcClusterSpec{
		Binary:     cfg.Binary,
		Nodes:      nodes,
		Partitions: partitions,
		DataRoot:   cfg.DataRoot,
		Stderr:     cfg.Stderr,
		ExtraArgs:  []string{"-checkpoint-interval=2s"},
	})
	if err != nil {
		return nil, fmt.Errorf("launching %d-node cluster: %w", nodes, err)
	}
	defer cl.Close()

	r := &runner{
		cfg:   cfg,
		cl:    cl,
		hc:    &http.Client{Timeout: 30 * time.Second},
		nodes: append([]string(nil), cl.URLs...),
	}
	if err := r.createTargets(); err != nil {
		return nil, fmt.Errorf("creating estimators: %w", err)
	}
	r.logf("cluster up: %d nodes, %d partitions, %d targets", nodes, partitions, len(r.targets))

	runctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out []*phaseCounts
	for i, ph := range cfg.Phases {
		c := &phaseCounts{name: ph.Name}
		out = append(out, c)
		// Idempotency keys and stream sessions are named by the phase's
		// position: a repeated phase name must not replay earlier keys.
		if err := r.runPhase(runctx, fmt.Sprintf("%d-%s", i, ph.Name), ph, c); err != nil {
			return out, err
		}
	}
	return out, nil
}
