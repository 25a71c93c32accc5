package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// Cluster read path and read cache: routing an estimate, an info request
// or the cluster-wide snapshot gathers every partition's snapshot and
// merges them. A router remembers the last gather per base name - each
// partition's validator and bytes plus the merged servable - and reads
// the partitions of a name with one call per owner node on a pooled peer
// connection (see validators.go), sending the cached validators along.
// Steady state on a quiet estimator is one "unchanged" answer per remote
// owner and an in-process validator check per local partition, and the
// cached merged servable is reused
// as-is (a "hit" in /metrics). Any partition that changed comes back with
// its bytes, and the merge is rebuilt from the cached bytes of the
// still-fresh partitions plus the new ones (a "miss") - correctness never
// depends on the cache, only the transfer volume does.
//
// A partial read (?partial=ok) revalidates against the cache like any
// other but never writes it: a degraded merge must never be remembered
// as the estimator's state.

// maxReadCacheEntries bounds the router's cache; above it an arbitrary
// entry is evicted (estimator working sets are small; this is a safety
// bound, not an LRU).
const maxReadCacheEntries = 128

// gatherCacheEntry is one base estimator's cached gather: per-partition
// validators and snapshot bytes, plus the servable merged from them.
type gatherCacheEntry struct {
	tags  []string
	snaps [][]byte
	est   servable
}

// readCacheGet returns the cached entry for name, nil when absent.
func (c *clusterNode) readCacheGet(name string) *gatherCacheEntry {
	c.readCacheMu.Lock()
	defer c.readCacheMu.Unlock()
	return c.readCache[name]
}

// readCachePut installs an entry, evicting arbitrarily at the bound.
func (c *clusterNode) readCachePut(name string, e *gatherCacheEntry) {
	c.readCacheMu.Lock()
	defer c.readCacheMu.Unlock()
	if c.readCache == nil {
		c.readCache = make(map[string]*gatherCacheEntry)
	}
	if _, ok := c.readCache[name]; !ok && len(c.readCache) >= maxReadCacheEntries {
		for k := range c.readCache {
			delete(c.readCache, k)
			break
		}
	}
	c.readCache[name] = e
}

// readCacheDrop forgets a name (deleted estimators must not serve stale
// merges).
func (c *clusterNode) readCacheDrop(name string) {
	c.readCacheMu.Lock()
	defer c.readCacheMu.Unlock()
	delete(c.readCache, name)
}

// gatherCached is the cluster read path: it reads every partition of
// name and merges them into one servable - exact by linearity, each
// partition read at its owner's current state (per-partition
// consistency; see docs/CLUSTER.md). The merge is rebuilt only when a
// partition changed. Strict reads (partial false) fail when any
// partition cannot be read and return the merge under a cluster-wide
// validator (mergedServable); partial reads skip unreachable partitions
// and merge the rest, reporting how many were answered - a bounded
// under-count, exact over the partitions it includes.
func (c *clusterNode) gatherCached(ctx context.Context, name string, partial bool) (est servable, answered int, err error) {
	prev := c.readCacheGet(name)
	inms := make([]string, c.parts)
	if prev != nil {
		copy(inms, prev.tags)
	}
	recs, errs := c.readParts(ctx, name, inms)
	missing, allFresh := 0, prev != nil
	var firstErr error
	for p, perr := range errs {
		switch {
		case errors.Is(perr, errShardMissing):
			missing++
		case perr != nil && firstErr == nil:
			firstErr = fmt.Errorf("cluster: partition %d: %w", p, perr)
		}
		allFresh = allFresh && perr == nil && recs[p].state == partUnchanged
	}
	if missing == c.parts {
		c.readCacheDrop(name)
		return nil, 0, errNotFoundLocal
	}
	if !partial {
		if firstErr != nil {
			return nil, 0, firstErr
		}
		if missing > 0 {
			return nil, 0, fmt.Errorf("estimator %q is missing %d of %d partitions (partial create?)", name, missing, c.parts)
		}
		if m := c.srv.metrics; m != nil {
			if allFresh {
				m.readCacheHits.Inc()
			} else {
				m.readCacheMisses.Inc()
			}
		}
	}
	if allFresh {
		return prev.est, c.parts, nil
	}
	entry := &gatherCacheEntry{tags: make([]string, c.parts), snaps: make([][]byte, c.parts)}
	for p, rec := range recs {
		if errs[p] != nil {
			continue
		}
		snap := rec.data
		if rec.state == partUnchanged {
			snap = prev.snaps[p]
		}
		if est == nil {
			est, err = restoreServable(snap)
		} else {
			err = est.mergeSnapshot(snap)
		}
		if err != nil {
			return nil, 0, err
		}
		entry.tags[p], entry.snaps[p] = rec.tag, snap
		answered++
	}
	if est == nil {
		// Every reachable partition failed: nothing to merge, so degrade
		// no further - report the failure.
		return nil, 0, firstErr
	}
	if partial {
		return est, answered, nil
	}
	entry.est = &mergedServable{servable: est, tag: mergedTag(entry.tags)}
	c.readCachePut(name, entry)
	return entry.est, answered, nil
}

// mergedServable is a strict gather's merge under a cluster-wide
// validator derived from its partitions' validators. The merge of given
// partition bytes is deterministic and the merged object is never
// written, so the tag is sound; it costs no marshal, and every router
// that merged the same partition states hands out the same tag.
type mergedServable struct {
	servable
	tag string
}

func (m *mergedServable) version() uint64           { return 0 }
func (m *mergedServable) snapshotTag(uint64) string { return m.tag }

// mergedTag hashes the validators of a merge's partitions, in partition
// order; it is "" - no validator - when any partition had none.
func mergedTag(tags []string) string {
	h := sha256.New()
	for _, tag := range tags {
		if tag == "" {
			return ""
		}
		io.WriteString(h, tag)
		io.WriteString(h, ",") // validators hold no comma (validTag)
	}
	return `"` + hex.EncodeToString(h.Sum(nil)[:16]) + `"`
}

// groupAnswer is one node's answer to a grouped read: a record per
// listed partition, nil when neither the owner nor its replica answered.
// ownerErr is set whenever the owner itself did not answer.
type groupAnswer struct {
	recs     []partRecord
	ownerErr error
}

// readParts reads every partition of name with one call per owner node,
// passing inms[p] as partition p's cached validator. Every remote
// owner's request goes on the wire before the router reads its own
// partitions in process and then each answer in turn, so the owners
// work in parallel without a goroutine per call. A partition gets at
// most three attempts, with bounded backoff between them, and only the
// partitions that need one are asked again, grouped by the owner the map
// then names: those neither their owner nor its replica answered, and
// those their owner reported not holding (a rebalance moved them, or the
// name was never fully created), after a map refresh from that owner.
// errs[p] wraps errShardMissing when no node would serve partition p.
func (c *clusterNode) readParts(ctx context.Context, name string, inms []string) ([]partRecord, []error) {
	recs := make([]partRecord, c.parts)
	errs := make([]error, c.parts)
	todo := make([]int, c.parts)
	for p := range todo {
		todo[p] = p
	}
	for attempt := 0; attempt < 3 && len(todo) > 0; attempt++ {
		if err := c.backoff.Wait(ctx, attempt); err != nil {
			for _, p := range todo {
				if errs[p] == nil { // never asked; the rest keep their last error
					errs[p] = err
				}
			}
			break
		}
		m := c.map_()
		var owners []cluster.Node
		groups := make(map[string][]int)
		for _, p := range todo {
			owner, ok := m.Owner(cluster.ShardName(name, p))
			if !ok {
				errs[p] = fmt.Errorf("no owner for %q", cluster.ShardName(name, p))
				continue
			}
			if groups[owner.ID] == nil {
				owners = append(owners, owner)
			}
			groups[owner.ID] = append(groups[owner.ID], p)
		}
		reads := make([]*groupRead, len(owners))
		for i, owner := range owners {
			if owner.ID != c.selfID {
				reads[i] = c.sendGroup(ctx, owner, name, groups[owner.ID], inms)
			}
		}
		answers, bad := make([]groupAnswer, len(owners)), make([]error, len(owners))
		for i, owner := range owners {
			if reads[i] == nil {
				answers[i], bad[i] = c.readLocal(name, groups[owner.ID], inms)
			}
		}
		for i, r := range reads {
			if r != nil {
				answers[i], bad[i] = c.receiveGroup(m, r, inms)
			}
		}
		todo = nil
		for i, owner := range owners {
			g, moved := answers[i], false
			for j, p := range groups[owner.ID] {
				switch {
				case bad[i] != nil: // a bad answer, which no retry mends
					errs[p] = bad[i]
				case g.recs == nil || g.recs[j].state == partNotHere && g.ownerErr != nil:
					// Unanswered, or not held by the replica standing in
					// for the owner (it may lag a create): only the
					// owner's own "not here" means moved.
					errs[p] = g.ownerErr
					todo = append(todo, p)
				case g.recs[j].state == partNotHere:
					errs[p] = fmt.Errorf("%w: %q on %s", errShardMissing, cluster.ShardName(name, p), owner.ID)
					todo = append(todo, p)
					moved = true
				default:
					recs[p], errs[p] = g.recs[j], nil
				}
			}
			switch {
			case moved && owner.ID == c.selfID:
				c.refreshAny(ctx)
			case moved:
				c.refreshFrom(ctx, owner.URL)
			}
		}
	}
	return recs, errs
}

// readLocal reads the listed partitions of name from this node's own
// registry.
func (c *clusterNode) readLocal(name string, parts []int, inms []string) (g groupAnswer, err error) {
	g.recs = make([]partRecord, len(parts))
	for i, p := range parts {
		if g.recs[i], err = c.srv.readPart(cluster.ShardName(name, p), inms[p]); err != nil {
			return groupAnswer{}, err
		}
	}
	return g, nil
}

// groupRead is one remote owner's grouped read in flight, under a
// fanout.snapshot span that ends when its answer is read.
type groupRead struct {
	ctx   context.Context
	sp    *trace.Span
	owner cluster.Node
	name  string
	parts []int
	frame []byte // the request, kept for a fallback to the replica
	call  *nodeCall
}

// sendGroup puts one grouped read of the listed partitions of name on
// the wire to a remote owner.
func (c *clusterNode) sendGroup(ctx context.Context, owner cluster.Node, name string, parts []int, inms []string) *groupRead {
	q := readRequest{base: name, parts: parts, inms: make([]string, len(parts))}
	list := make([]string, len(parts))
	for i, p := range parts {
		list[i], q.inms[i] = strconv.Itoa(p), inms[p]
	}
	ctx, sp := c.srv.tracer.Start(ctx, "fanout.snapshot")
	sp.SetAttr("node", owner.ID)
	sp.SetAttr("parts", strings.Join(list, ","))
	q.traceparent, q.requestID = trace.TraceparentFromContext(ctx), requestIDFrom(ctx)
	r := &groupRead{ctx: ctx, sp: sp, owner: owner, name: name, parts: parts}
	r.frame = ingest.AppendFrame(nil, frameRead, appendReadRequest(nil, &q))
	r.call = c.sendNode(ctx, owner, r.frame)
	return r
}

// nodeCall is one framed call to a peer node in flight (see
// clusterNode.sendNode).
type nodeCall struct {
	c     *clusterNode
	node  cluster.Node
	start time.Time
	call  *cluster.Call
	err   error // the breaker refused the call
}

// sendNode starts one framed call to a peer node on a pooled
// connection, gated by the node's breaker like callNode: an open breaker
// refuses it without touching the network.
func (c *clusterNode) sendNode(ctx context.Context, node cluster.Node, frame []byte) *nodeCall {
	if !c.health.Allow(node.ID) {
		return &nodeCall{err: fmt.Errorf("%w: node %s", errBreakerOpen, node.ID)}
	}
	return &nodeCall{c: c, node: node, start: time.Now(), call: c.client.Send(ctx, node.URL, http.MethodGet, frame)}
}

// receive reads the call's answer of at most limit bytes and records the
// outcome into the node's health: no answer, or an error answer, is a
// failure.
func (nc *nodeCall) receive(limit uint64) (ingest.FrameType, []byte, error) {
	if nc.err != nil {
		return 0, nil, nc.err
	}
	ft, body, err := nc.call.Receive(limit)
	nc.c.health.Record(nc.node.ID, err == nil && ft != ingest.FrameError, time.Since(nc.start))
	return ft, body, err
}

// receiveGroup reads the owner's answer to r. When the owner cannot be
// reached (breaker open, connection failure), its attached read
// replica, if the map names one, serves the group through the same
// frame; a replica that fails too leaves the group unanswered. The error
// reports a bad answer.
func (c *clusterNode) receiveGroup(m *cluster.Map, r *groupRead, inms []string) (g groupAnswer, err error) {
	defer func() {
		switch {
		case err != nil:
			r.sp.Fail(err.Error())
		case g.recs == nil:
			r.sp.Fail(g.ownerErr.Error())
		}
		r.sp.End()
	}()
	limit := uint64(len(r.parts))*maxPartRecord + binary.MaxVarintLen64
	ft, body, oerr := r.call.receive(limit)
	if oerr != nil {
		g.ownerErr = oerr
		rurl, ok := m.ReplicaURL(r.owner.ID)
		if !ok {
			return g, nil
		}
		var rerr error
		ft, body, rerr = c.sendNode(r.ctx, cluster.Node{ID: "replica:" + r.owner.ID, URL: rurl}, r.frame).receive(limit)
		if rerr != nil || ft == ingest.FrameError {
			return g, nil
		}
	}
	switch ft {
	case frameParts:
		if g.recs, err = decodeParts(body, len(r.parts)); err != nil {
			return groupAnswer{}, err
		}
	case ingest.FrameError:
		msg := string(body)
		if se, derr := ingest.DecodeError(body); derr == nil {
			msg = se.Msg
		}
		return groupAnswer{}, fmt.Errorf("snapshot of %q partitions %v from %s: %s", r.name, r.parts, r.owner.ID, msg)
	default:
		return groupAnswer{}, fmt.Errorf("snapshot of %q partitions %v from %s: frame type %d", r.name, r.parts, r.owner.ID, ft)
	}
	for i, p := range r.parts {
		if g.recs[i].state == partUnchanged {
			if inms[p] == "" {
				return groupAnswer{}, fmt.Errorf("%s reported partition %d of %q unchanged against no validator", r.owner.ID, p, r.name)
			}
			g.recs[i].tag = inms[p]
		}
	}
	return g, nil
}
