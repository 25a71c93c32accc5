package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	spatial "repro"
)

// The oracle: replay every acknowledged mutation into fresh in-process
// estimators (a loss-free single build) and require the cluster's merged
// snapshots - fetched from EVERY node - to be byte-identical. Sketches
// are linear, so replay order is irrelevant and equality is exact, not
// statistical: one lost or duplicated acked update changes the counters
// and fails the comparison. This is TestChaosSoak's discipline, made
// scriptable.

// refEstimator is the surface the oracle needs of the four reference
// builds: every acked record goes through the one update path, Apply.
type refEstimator interface {
	Apply(spatial.UpdateRecord) error
	Marshal() ([]byte, error)
}

// newRef builds the loss-free reference estimator for a target, with
// the same config the harness used to create it on the cluster (see
// createTargets - the two must stay in lockstep).
func newRef(kind string) (refEstimator, error) {
	sz := spatial.Sizing{Instances: 64, Groups: 4}
	switch kind {
	case "join":
		return spatial.NewJoinEstimator(spatial.JoinConfig{Dims: 2, DomainSize: dom, Seed: 1, Sizing: sz})
	case "range":
		return spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 1, DomainSize: dom, Seed: 2, Sizing: sz})
	case "epsjoin":
		return spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{Dims: 2, DomainSize: dom, Eps: 8, Seed: 3, Sizing: sz})
	case "containment":
		return spatial.NewContainmentEstimator(spatial.ContainmentConfig{Dims: 2, DomainSize: dom, Seed: 4, Sizing: sz})
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// verify replays the cumulative acked log and asserts every node serves
// a merged snapshot byte-identical to the loss-free build, for every
// target. Called at quiesce points (no traffic in flight); the retry
// window lets routers heal breakers after a fault phase.
func (r *runner) verify(when string) error {
	refs := make([]refEstimator, len(r.targets))
	for i, tg := range r.targets {
		ref, err := newRef(tg.kind)
		if err != nil {
			return err
		}
		refs[i] = ref
	}
	r.mu.Lock()
	acked := r.acked
	r.mu.Unlock()
	for _, op := range acked {
		if err := refs[op.target].Apply(op.rec); err != nil {
			return fmt.Errorf("%s: replaying acked log: %w", when, err)
		}
	}
	for i, tg := range r.targets {
		want, err := refs[i].Marshal()
		if err != nil {
			return err
		}
		for _, node := range r.nodeList() {
			if err := r.matchSnapshot(node, tg, want); err != nil {
				return fmt.Errorf("%s: %w (acked ops: %d)", when, err, len(acked))
			}
		}
	}
	r.logf("oracle: %s: %d acked ops, %d targets x %d nodes byte-identical",
		when, len(acked), len(r.targets), len(r.nodeList()))
	return nil
}

// matchSnapshot fetches one target's merged snapshot via one node,
// retrying until the deadline (breakers may need to close after a
// failover), and byte-compares it with the reference build.
func (r *runner) matchSnapshot(node string, tg target, want []byte) error {
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for {
		resp, err := r.hc.Get(tg.path(node) + "/snapshot")
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				if !bytes.Equal(data, want) {
					return fmt.Errorf("node %s, target %s: merged cluster snapshot differs from the loss-free replay", node, tg.qualified())
				}
				return nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
			if rerr != nil {
				lastErr = rerr
			}
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s, target %s: no full snapshot before deadline: %v", node, tg.qualified(), lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
