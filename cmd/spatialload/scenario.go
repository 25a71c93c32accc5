package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/ingestclient"
	"repro/internal/cluster"
)

// Scenario orchestration: bring up the cluster, run each phase's worker
// fleet, drive the control-plane events (partition moves, the
// SIGKILL+promote failover), quiesce, and hand the acked logs to the
// oracle.

// Phase is one scripted scenario segment.
type Phase struct {
	// Name labels the phase in logs and counts ("steady", ...).
	Name string
	// Duration is the workers-active window.
	Duration time.Duration
	// Rebalance is how many partition moves to perform, spread across
	// the phase, while traffic flows.
	Rebalance int
	// Failover SIGKILLs one node mid-phase and promotes a WAL-shipped
	// replica into its identity.
	Failover bool
}

// parseScenario turns "steady:5s,rebalance:10s,failover:15s" into
// phases. Known names: steady, rebalance (one move per 2s, minimum 1),
// failover.
func parseScenario(s string) ([]Phase, error) {
	var out []Phase
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ds, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("phase %q is not name:duration", part)
		}
		d, err := time.ParseDuration(ds)
		if err != nil {
			return nil, fmt.Errorf("phase %q: %w", part, err)
		}
		ph := Phase{Name: name, Duration: d}
		switch name {
		case "steady":
		case "rebalance":
			ph.Rebalance = int(d / (2 * time.Second))
			if ph.Rebalance < 1 {
				ph.Rebalance = 1
			}
		case "failover":
			ph.Failover = true
		default:
			return nil, fmt.Errorf("unknown phase %q (want steady|rebalance|failover)", name)
		}
		out = append(out, ph)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty scenario")
	}
	return out, nil
}

// runner is one load run's shared state.
type runner struct {
	cfg     Config
	cl      *cluster.ProcCluster
	targets []target
	hc      *http.Client

	// gate is the write gate: writers hold it shared per op; the
	// failover cut-over holds it exclusively so the replica can reach
	// the victim's exact WAL frontier before the SIGKILL.
	gate sync.RWMutex

	mu     sync.Mutex
	nodes  []string // current base URLs (failover swaps the victim's)
	acked  []refOp  // cumulative acked reference log
	fatals []error  // unresolvable worker outcomes (poison the oracle)
}

// node returns a current node base URL by rotating index.
func (r *runner) node(i int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[i%len(r.nodes)]
}

// nodeList snapshots the current node URLs.
func (r *runner) nodeList() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.nodes...)
}

// logf writes one progress line when a log sink is configured.
func (r *runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, "spatialload: "+format+"\n", args...)
	}
}

// fatalf records an unresolvable worker outcome; the run fails at the
// next quiesce rather than asserting a doomed byte-comparison.
func (r *runner) fatalf(format string, args ...any) {
	r.mu.Lock()
	r.fatals = append(r.fatals, fmt.Errorf(format, args...))
	r.mu.Unlock()
}

// httpJSON issues a request with a JSON body and decodes the response,
// requiring the given status.
func (r *runner) httpJSON(method, url string, body any, wantStatus int, out any) error {
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// createTargets registers the tenants and creates the four estimator
// kinds per tenant. Configs mirror newRef exactly - the oracle depends
// on it.
func (r *runner) createTargets() error {
	base := r.node(0)
	kinds := []struct {
		name, kind string
		cfg        map[string]any
	}{
		{"j", "join", map[string]any{"dims": 2, "domainSize": dom, "seed": 1, "instances": 64, "groups": 4}},
		{"r", "range", map[string]any{"dims": 1, "domainSize": dom, "seed": 2, "instances": 64, "groups": 4}},
		{"e", "epsjoin", map[string]any{"dims": 2, "domainSize": dom, "eps": 8, "seed": 3, "instances": 64, "groups": 4}},
		{"c", "containment", map[string]any{"dims": 2, "domainSize": dom, "seed": 4, "instances": 64, "groups": 4}},
	}
	for _, tenant := range []string{"", "acme"} { // the default namespace and one tenant
		createURL := base + "/v1/estimators"
		if tenant != "" {
			if err := r.httpJSON("PUT", base+"/v1/tenants/"+tenant, map[string]any{}, http.StatusOK, nil); err != nil {
				return err
			}
			createURL = base + "/v1/tenants/" + tenant + "/estimators"
		}
		for _, k := range kinds {
			req := map[string]any{"name": k.name, "kind": k.kind, "config": k.cfg}
			if err := r.httpJSON("POST", createURL, req, http.StatusCreated, nil); err != nil {
				return err
			}
			r.targets = append(r.targets, target{tenant: tenant, name: k.name, kind: k.kind})
		}
	}
	return nil
}

// ringMap fetches the partition map as seen by one node.
func (r *runner) ringMap(node string) (*cluster.Map, error) {
	var rr struct {
		Map *cluster.Map `json:"map"`
	}
	if err := r.httpJSON("GET", node+"/admin/ring", nil, http.StatusOK, &rr); err != nil {
		return nil, err
	}
	if rr.Map == nil {
		return nil, fmt.Errorf("node %s reports no partition map", node)
	}
	return rr.Map, nil
}

// rebalanceOnce moves one partition of one target to a node that does
// not currently own it, via any node's /admin/rebalance, and requires
// the move to be acknowledged.
func (r *runner) rebalanceOnce(n int) error {
	tg := r.targets[n%len(r.targets)]
	part := n % partitions
	m, err := r.ringMap(r.node(0))
	if err != nil {
		return err
	}
	shard := cluster.ShardName(tg.qualified(), part)
	owner, ok := m.Owner(shard)
	if !ok {
		return fmt.Errorf("no owner for %q", shard)
	}
	var targetID string
	for _, nd := range m.Nodes {
		if nd.ID != owner.ID {
			targetID = nd.ID
			break
		}
	}
	var res struct {
		Moved bool `json:"moved"`
	}
	req := map[string]any{"name": tg.qualified(), "partition": part, "target": targetID}
	if err := r.httpJSON("POST", r.node(n)+"/admin/rebalance", req, http.StatusOK, &res); err != nil {
		return err
	}
	if !res.Moved {
		return fmt.Errorf("rebalance of %q to %s reported moved=false", shard, targetID)
	}
	r.logf("rebalance: moved %s to %s under load", shard, targetID)
	return nil
}

// walPos fetches a node's WAL frontier.
func (r *runner) walPos(node string) (string, error) {
	var rr struct {
		WalPos string `json:"walPos"`
	}
	if err := r.httpJSON("GET", node+"/admin/ring", nil, http.StatusOK, &rr); err != nil {
		return "", err
	}
	return rr.WalPos, nil
}

// replicaPos fetches a replica's applied position.
func (r *runner) replicaPos(node string) (string, error) {
	var rr struct {
		Replica *struct {
			Pos string `json:"pos"`
		} `json:"replica"`
	}
	if err := r.httpJSON("GET", node+"/admin/ring", nil, http.StatusOK, &rr); err != nil {
		return "", err
	}
	if rr.Replica == nil {
		return "", fmt.Errorf("node %s reports no replica status", node)
	}
	return rr.Replica.Pos, nil
}

// failover replaces the last node with a WAL-shipped replica under
// load: launch the replica against the live victim, gate writes, drain
// streams, wait for the replica to reach the victim's exact WAL
// frontier, SIGKILL the victim, promote the replica, push a bumped
// partition map with the victim's identity re-pointed at the replica,
// and reopen the gate. Acked writes never span the cut (the gate), so
// the oracle's byte-exactness survives a real process kill.
func (r *runner) failover(streams []*streamWriter) error {
	victim := len(r.cl.IDs) - 1
	vID, vURL := r.cl.IDs[victim], r.cl.URLs[victim]
	ports, err := cluster.ReservePorts(1)
	if err != nil {
		return err
	}
	args := []string{
		"-addr=" + ports[0],
		"-data-dir=" + filepath.Join(r.cfg.DataRoot, "node-"+vID+"-replica"),
		"-node-id=" + vID,
		"-peers=" + r.cl.PeersFlag(),
		"-partitions=" + fmt.Sprint(partitions),
		"-checkpoint-interval=0",
		"-follow=" + vURL,
		"-replica-poll=50ms",
	}
	proc, err := cluster.Launch(cluster.LaunchOptions{
		Binary: r.cfg.Binary, Args: args, Stderr: r.cfg.Stderr,
	})
	if err != nil {
		return fmt.Errorf("launching replica of %s: %w", vID, err)
	}
	if err := cluster.WaitHealthy(proc.URL, 0); err != nil {
		proc.Kill()
		return err
	}
	r.logf("failover: replica of %s up at %s, cutting over", vID, proc.URL)

	// The cut: no writer holds the gate, so the victim's WAL frontier is
	// final once the streams are drained.
	r.gate.Lock()
	defer r.gate.Unlock()
	for _, sw := range streams {
		if err := sw.client.Flush(); err != nil {
			proc.Kill()
			return fmt.Errorf("draining stream before cut-over: %w", err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		vpos, err := r.walPos(vURL)
		if err != nil {
			proc.Kill()
			return fmt.Errorf("victim WAL position: %w", err)
		}
		rpos, err := r.replicaPos(proc.URL)
		if err != nil {
			proc.Kill()
			return fmt.Errorf("replica position: %w", err)
		}
		if vpos == rpos {
			break
		}
		if time.Now().After(deadline) {
			proc.Kill()
			return fmt.Errorf("replica never reached the victim's frontier (%s vs %s)", rpos, vpos)
		}
		time.Sleep(20 * time.Millisecond)
	}

	r.cl.KillNode(victim)
	if err := r.httpJSON("POST", proc.URL+"/admin/promote", nil, http.StatusOK, nil); err != nil {
		proc.Kill()
		return fmt.Errorf("promoting replica: %w", err)
	}
	m, err := r.ringMap(r.node(0))
	if err != nil {
		proc.Kill()
		return err
	}
	m.Version++
	for i := range m.Nodes {
		if m.Nodes[i].ID == vID {
			m.Nodes[i].URL = proc.URL
		}
	}
	r.mu.Lock()
	r.nodes[victim] = proc.URL
	r.mu.Unlock()
	r.cl.Procs[victim] = proc
	r.cl.URLs[victim] = proc.URL
	for _, node := range r.nodeList() {
		if err := r.httpJSON("POST", node+"/admin/ring", m, http.StatusOK, nil); err != nil {
			return fmt.Errorf("adopting new map on %s: %w", node, err)
		}
	}
	r.logf("failover: %s SIGKILLed, replica promoted and mapped in (map v%d)", vID, m.Version)
	return nil
}

// runPhase runs one phase's worker fleet plus its control events, then
// quiesces: workers stopped, streams flushed, acked logs harvested, and
// the oracle run over everything acked so far. tag names the phase's
// stream sessions and update keys, unique within the run.
func (r *runner) runPhase(runctx context.Context, tag string, ph Phase, counts *phaseCounts) error {
	r.logf("phase %s: %v (update=%d stream=%d estimate=%d workers)",
		ph.Name, ph.Duration, updateWorkers, streamWorkers, estimateWorkers)

	phasectx, cancel := context.WithTimeout(runctx, ph.Duration)
	defer cancel()
	// Ops outlive the phase window: an ambiguous update retries into the
	// quiesce grace period instead of poisoning the acked log.
	opctx, opCancel := context.WithTimeout(runctx, ph.Duration+30*time.Second)
	defer opCancel()

	var wg sync.WaitGroup

	// Streaming writers: one session per worker, rotating join targets,
	// attached to non-victim nodes so a failover exercises routed fan-out
	// recovery rather than killing the session's own endpoint.
	var joinTargets []int
	for i, tg := range r.targets {
		if tg.kind == "join" {
			joinTargets = append(joinTargets, i)
		}
	}
	streams := make([]*streamWriter, 0, streamWorkers)
	for i := 0; i < streamWorkers; i++ {
		ti := joinTargets[i%len(joinTargets)]
		client, err := ingestclient.Dial(ingestclient.Options{
			BaseURL:   r.node(i % (nodes - 1)),
			Estimator: r.targets[ti].qualified(),
			Session:   fmt.Sprintf("load-%s-w%d", tag, i),
		})
		if err != nil {
			return err
		}
		sw := &streamWriter{client: client, target: ti}
		streams = append(streams, sw)
		wg.Add(1)
		go func(i int, sw *streamWriter) {
			defer wg.Done()
			r.streamWorker(phasectx, i, counts, sw)
		}(i, sw)
	}

	for i := 0; i < updateWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acked := r.updateWorker(phasectx, opctx, tag, i, counts)
			r.mu.Lock()
			r.acked = append(r.acked, acked...)
			r.mu.Unlock()
		}(i)
	}

	for i := 0; i < estimateWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.estimateWorker(phasectx, i, counts, ph.Failover)
		}(i)
	}

	// Control events, spread across the phase.
	ctrlErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		switch {
		case ph.Failover:
			select {
			case <-time.After(ph.Duration / 3):
				err = r.failover(streams)
			case <-phasectx.Done():
			}
		case ph.Rebalance > 0:
			step := ph.Duration / time.Duration(ph.Rebalance+1)
			for n := 0; n < ph.Rebalance && err == nil && phasectx.Err() == nil; n++ {
				select {
				case <-time.After(step):
					err = r.rebalanceOnce(n)
				case <-phasectx.Done():
				}
			}
		}
		if err != nil {
			ctrlErr <- err
		}
	}()

	wg.Wait()
	select {
	case err := <-ctrlErr:
		return fmt.Errorf("phase %s: %w", ph.Name, err)
	default:
	}

	// Quiesce: drain and close the streams, then promote their full sent
	// history into the acked log - exactly-once ordered delivery means a
	// clean Flush proves all of it durable.
	for _, sw := range streams {
		if err := sw.client.Flush(); err != nil {
			return fmt.Errorf("phase %s: stream flush: %w", ph.Name, err)
		}
		sw.client.Close()
		r.mu.Lock()
		for _, rec := range sw.sent {
			r.acked = append(r.acked, refOp{target: sw.target, rec: rec})
		}
		r.mu.Unlock()
	}
	r.mu.Lock()
	fatals := r.fatals
	r.mu.Unlock()
	if len(fatals) > 0 {
		return fmt.Errorf("phase %s: %d unresolvable worker outcomes, first: %w", ph.Name, len(fatals), fatals[0])
	}
	r.logf("%v", counts)
	return r.verify("after " + ph.Name)
}
