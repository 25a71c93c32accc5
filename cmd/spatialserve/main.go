// Command spatialserve serves a registry of named spatial estimators over
// HTTP: insert/delete streams at the edge, estimates, full-estimator
// snapshots and merges - the paper's build-then-merge deployment
// (synopses built near the data, shipped and combined centrally) as a
// long-running service. Estimators are safe for concurrent use, so mixed
// reader/writer traffic needs no external locking.
//
// With -data-dir the registry is durable: every mutation is written ahead
// to a group-committed WAL before it is applied, checkpoints run in the
// background (and on demand via POST /admin/checkpoint), and on startup
// the registry is recovered from the latest checkpoint plus the WAL
// suffix - bit-identical to a server that never crashed, torn final
// records tolerated. See docs/ARCHITECTURE.md for the design and
// docs/SNAPSHOT_FORMAT.md for the on-disk formats.
//
// Tenants are namespaces with limits: register one with PUT
// /v1/tenants/{t} (memory budget in exact counter words, rate limits)
// and reach its estimators under /v1/tenants/{t}/estimators/... - the
// bare /v1/estimators routes are the built-in "default" tenant. Every
// server also exposes Prometheus metrics on GET /metrics (per-tenant
// latency, admission sheds, WAL lag, cache hit rates; exempt from
// admission shedding) and echoes/propagates X-Request-Id trace IDs.
// See docs/OPERATIONS.md for the series reference and quota runbook.
//
// High-volume writers use POST /v1/ingest, which upgrades to the
// spatial-ingest/1 binary streaming protocol: sequenced exactly-once
// batches acked after WAL commit, reconnect-resume from a persisted
// per-session watermark, credit-based backpressure (see
// docs/INGEST_PROTOCOL.md; client package repro/ingestclient). The JSON
// update path gets the same retry safety via an Idempotency-Key header.
//
// Usage:
//
//	spatialserve -addr :8080 \
//	    -data-dir /var/lib/spatialserve \
//	    -checkpoint-interval 30s \
//	    -fsync=false
//
// Create an estimator, stream objects, estimate, snapshot:
//
//	curl -X POST localhost:8080/v1/estimators -d \
//	  '{"name":"parks-roads","kind":"join","config":{"dims":2,"domainSize":65536,"memoryWords":8192,"seed":42}}'
//	curl -X POST localhost:8080/v1/estimators/parks-roads/update -d \
//	  '{"side":"left","rects":[[[10,50],[20,80]]]}'
//	curl localhost:8080/v1/estimators/parks-roads/estimate
//	curl localhost:8080/v1/estimators/parks-roads/snapshot > parks-roads.spe1
//	curl -X POST --data-binary @parks-roads.spe1 localhost:8080/v1/estimators/parks-roads/merge
//	curl -X POST localhost:8080/admin/checkpoint   # durable checkpoint now
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// errUsage signals that the flag package already reported a usage problem
// (message plus usage text); main exits non-zero without re-printing it.
var errUsage = errors.New("invalid arguments")

// parsePeers turns the -peers flag ("id=url,id=url,...") into a version-1
// partition map.
func parsePeers(peers string, vnodes int) (*cluster.Map, error) {
	m := &cluster.Map{Version: 1, VNodes: vnodes}
	for _, part := range strings.Split(peers, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q is not id=url", part)
		}
		m.Nodes = append(m.Nodes, cluster.Node{ID: strings.TrimSpace(id), URL: strings.TrimRight(strings.TrimSpace(u), "/")})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// parseReplicas turns the -read-replicas flag ("id=url,...") into the
// map's replica attachments (validated against membership by the caller).
func parseReplicas(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("read-replica %q is not id=url", part)
		}
		out[strings.TrimSpace(id)] = strings.TrimRight(strings.TrimSpace(u), "/")
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args, builds the (optionally persistent) server and serves
// until SIGINT/SIGTERM, then shuts down gracefully: stop accepting, flush
// a final checkpoint, close the WAL. The "listening on" line goes to out
// so wrappers (tests, examples) can discover a :0 port.
func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("spatialserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataDir := fs.String("data-dir", "", "durability root (WAL + checkpoints); empty serves in-memory only")
	fsync := fs.Bool("fsync", false, "fsync the WAL on every acknowledged mutation (power-loss durability; off, mutations still survive process crashes)")
	ckptEvery := fs.Duration("checkpoint-interval", 30*time.Second, "background checkpoint period with -data-dir (0 disables periodic checkpoints)")
	segBytes := fs.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 64 MiB)")
	nodeID := fs.String("node-id", "", "cluster mode: this node's stable identity (must appear in -peers)")
	peers := fs.String("peers", "", "cluster mode: comma-separated id=url membership, identical on every node (e.g. a=http://h1:8080,b=http://h2:8080)")
	partitions := fs.Int("partitions", DefaultPartitions, "cluster mode: partitions per estimator, identical on every node")
	vnodes := fs.Int("vnodes", 0, "cluster mode: virtual nodes per member on the hash ring (0 = default)")
	follow := fs.String("follow", "", "replica mode: leader base URL to bootstrap from and tail (node serves reads only until /admin/promote)")
	replicaPoll := fs.Duration("replica-poll", 500*time.Millisecond, "replica mode: WAL tail poll interval")
	readReplicas := fs.String("read-replicas", "", "cluster mode: comma-separated id=url read-replica attachments; fan-out reads fall back to a node's replica when its breaker is open")
	maxReads := fs.Int("max-inflight-reads", 0, "admission control: max concurrently served read-class requests (0 = unlimited)")
	maxWrites := fs.Int("max-inflight-writes", 0, "admission control: max concurrently served write-class requests (0 = unlimited)")
	shedQPS := fs.Float64("shed-qps", 0, "admission control: token-bucket request rate above which requests are shed with 429 (0 = off)")
	shedBurst := fs.Int("shed-burst", 0, "admission control: token-bucket burst capacity (0 = one second of -shed-qps)")
	sessionTTL := fs.Duration("session-ttl", 24*time.Hour, "expire streaming-ingest session marks idle longer than this (0 keeps them; a mark with an attached stream never expires; Idempotency-Key marks always expire one minute after their last touch)")
	slowOp := fs.Duration("slow-op-threshold", 0, "log a structured JSON line (stderr) for requests and ingest batches at or above this duration, and always retain their traces (0 disables)")
	traceSample := fs.Float64("trace-sample", 0, "probability of retaining a fast, error-free trace in /admin/trace (0 = default 0.05; negative disables sampling, slow and errored traces are still kept)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/ (admission-exempt)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage was printed, exit 0
		}
		return errUsage
	}

	var srv *Server
	var err error
	if *dataDir != "" {
		srv, err = NewPersistentServer(PersistOptions{
			DataDir:            *dataDir,
			Fsync:              *fsync,
			CheckpointInterval: *ckptEvery,
			SegmentBytes:       *segBytes,
		})
		if err != nil {
			return fmt.Errorf("opening data dir %s: %w", *dataDir, err)
		}
	} else {
		srv = NewServer()
	}

	if (*peers == "") != (*nodeID == "") {
		fmt.Fprintln(os.Stderr, "spatialserve: -peers and -node-id must be set together")
		return errUsage
	}
	if *peers != "" {
		m, err := parsePeers(*peers, *vnodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spatialserve: %v\n", err)
			return errUsage
		}
		if *readReplicas != "" {
			if m.Replicas, err = parseReplicas(*readReplicas); err != nil {
				fmt.Fprintf(os.Stderr, "spatialserve: %v\n", err)
				return errUsage
			}
			if err := m.Validate(); err != nil {
				fmt.Fprintf(os.Stderr, "spatialserve: %v\n", err)
				return errUsage
			}
		}
		if err := srv.EnableCluster(ClusterOptions{SelfID: *nodeID, Map: m, Partitions: *partitions}); err != nil {
			fmt.Fprintf(os.Stderr, "spatialserve: %v\n", err)
			return errUsage
		}
	}
	srv.EnableAdmission(AdmitOptions{
		MaxInflightReads:  *maxReads,
		MaxInflightWrites: *maxWrites,
		ShedQPS:           *shedQPS,
		ShedBurst:         *shedBurst,
	})
	srv.StartSessionGC(*sessionTTL)
	if *slowOp > 0 {
		srv.EnableSlowOpLog(os.Stderr, *slowOp)
	}
	if *traceSample != 0 {
		srv.Tracer().SetSampleRate(*traceSample)
	}
	if *pprofOn {
		srv.EnablePprof()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *follow != "" {
		// Bootstrap synchronously so the node never serves an empty
		// registry; the listener is already bound, so peers retrying the
		// address see a slow accept, not a refused connection.
		if err := srv.StartReplica(*follow, *replicaPoll); err != nil {
			ln.Close()
			return err
		}
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(out, "spatialserve listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		return err
	case sig := <-sigc:
		log.Printf("spatialserve: %v: draining and flushing", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("spatialserve: shutdown: %v", err)
	}
	// The final checkpoint + WAL flush: after this, restart replays
	// nothing and starts from the checkpoint alone.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("flushing on shutdown: %w", err)
	}
	return nil
}
