package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Cluster mode: consistent-hash partitioned ingest with exact
// scatter-gather estimates.
//
// Every estimator is split into a fixed number of partitions. Partition p
// of estimator "name" lives in the owning node's local registry under the
// shard key "name#p"; ownership is decided by the cluster partition map
// (consistent-hash ring + rebalance overrides, see internal/cluster). Any
// node accepts any client request and routes it:
//
//   - updates are split per record by a stable routing hash and forwarded
//     to each partition's owner as record batches, where they run through
//     the one write path (validate -> WAL -> sharded ingest, see
//     applyIngestBatch);
//   - estimates read every partition with one call per owner node and
//     gather by MergeSnapshot (readcache.go) - sketches are linear
//     projections, so the merged counters (and hence the estimate) are
//     bit-identical to a single-node build of the same update stream;
//   - create/delete fan out per partition; list/info aggregate.
//
// Rebalancing moves one shard to a new owner without losing an update, as
// a one-shard follow: the shard's image at an exact WAL cut, then its WAL
// frames verbatim, applied at the target through the replica interpreter;
// the seal ships the last frames and flips ownership under the exclusive
// gate, and the source drops its copy. See docs/CLUSTER.md.

// Internal request/response headers of the cluster protocol.
const (
	// headerInternal marks node-to-node requests so routing handlers
	// apply them locally instead of re-routing (forwarding loops are
	// structurally impossible: internal requests never fan out).
	headerInternal = "X-Spatial-Internal"
	// headerWalNext carries the resume position of a WAL shipping response.
	headerWalNext = "X-Spatial-Wal-Next"
)

// errNotOwner reports a shard request that landed on a node the current
// partition map no longer (or does not yet) name as the shard's owner -
// the router's signal to refresh its map and retry.
var errNotOwner = errors.New("not the owner of this shard (stale partition map); refresh /admin/ring and retry")

// ClusterOptions configures cluster mode for a server.
type ClusterOptions struct {
	// SelfID is this node's identity in the partition map.
	SelfID string
	// Map is the initial partition map (typically version 1, built from
	// identical -peers flags on every node).
	Map *cluster.Map
	// Partitions is the number of partitions per estimator; it must agree
	// across the cluster. 0 means DefaultPartitions.
	Partitions int
	// Client overrides the fan-out client (tests: timeouts, fault hooks);
	// nil builds a default.
	Client *cluster.Client
	// Health overrides the per-node health registry (tests tune breaker
	// thresholds and clocks); nil builds a default.
	Health *cluster.Health
}

// DefaultPartitions is the per-estimator partition count when
// ClusterOptions does not set one.
const DefaultPartitions = 8

// clusterNode is the cluster-mode state of one server: the published
// partition map, the fan-out client, and the handoff machinery.
type clusterNode struct {
	srv    *Server
	selfID string
	parts  int
	client *cluster.Client

	// health tracks per-peer consecutive failures, EWMA latency and the
	// circuit breaker gating calls to each peer.
	health *cluster.Health
	// backoff paces every refresh-and-retry loop in this file; bounded
	// exponential with full jitter so routers that failed together do not
	// retry together.
	backoff cluster.Backoff

	// mapPath, when non-empty, is where adopted maps are persisted so
	// rebalance overrides survive a full-cluster restart (the -peers
	// flags only rebuild the version-1 map).
	mapPath string
	saveMu  sync.Mutex

	pmap atomic.Pointer[cluster.Map]

	// rebalanceMu serializes outbound handoffs from this node.
	rebalanceMu sync.Mutex

	// readCache remembers the last gathered snapshots and merge per base
	// name, revalidated by partition validator (see readcache.go).
	readCacheMu sync.Mutex
	readCache   map[string]*gatherCacheEntry
}

// EnableCluster switches the server into cluster mode. It must be called
// before the server starts accepting traffic.
func (s *Server) EnableCluster(opts ClusterOptions) error {
	if opts.SelfID == "" {
		return fmt.Errorf("cluster mode needs a node id")
	}
	if opts.Map == nil {
		return fmt.Errorf("cluster mode needs a partition map")
	}
	if err := opts.Map.Validate(); err != nil {
		return err
	}
	if _, ok := opts.Map.NodeByID(opts.SelfID); !ok {
		return fmt.Errorf("node id %q is not in the peer list", opts.SelfID)
	}
	parts := opts.Partitions
	if parts <= 0 {
		parts = DefaultPartitions
	}
	client := opts.Client
	if client == nil {
		client = cluster.NewClient(10 * time.Second)
	}
	health := opts.Health
	if health == nil {
		health = cluster.NewHealth(cluster.HealthOptions{
			OnTransition: func(node string, from, to cluster.BreakerState) {
				if m := s.metrics; m != nil {
					m.observeBreaker(node, from, to)
				}
			},
		})
	}
	c := &clusterNode{srv: s, selfID: opts.SelfID, parts: parts, client: client, health: health}
	m := opts.Map
	if s.persist != nil {
		c.mapPath = filepath.Join(s.persist.opts.DataDir, "cluster-map.json")
		// A persisted map newer than the flag-derived one carries the
		// rebalance overrides laid down before the restart; without them a
		// full-cluster restart would strand every moved shard on a node
		// the version-1 ring does not name. Only the VERSION and the
		// OVERRIDES come from the saved map - membership and addressing
		// stay with the flags, so operators add, remove and repoint nodes
		// by editing -peers. An override naming a node no longer in the
		// flags is dropped (its shard reverts to the ring owner), loudly.
		if saved := c.loadSavedMap(); saved != nil && saved.Version > m.Version {
			merged := m.Clone()
			merged.Version = saved.Version
			for key, id := range saved.Overrides {
				if _, ok := merged.NodeByID(id); !ok {
					logfServer("spatialserve: dropping saved override %s -> %s: node no longer in -peers", key, id)
					continue
				}
				if merged.Overrides == nil {
					merged.Overrides = make(map[string]string)
				}
				merged.Overrides[key] = id
			}
			m = merged
		}
	}
	c.pmap.Store(m.EnsureRing())
	s.cluster = c
	// Late-bind the node identity onto observability: spans recorded from
	// here on carry the cluster self ID, so assembled cross-node trace
	// trees attribute each span to the node that ran it.
	s.tracer.SetNode(opts.SelfID)
	return nil
}

// loadSavedMap reads the persisted partition map, nil when absent or
// unusable (an unusable file is logged and ignored; the flag map still
// brings the node up).
func (c *clusterNode) loadSavedMap() *cluster.Map {
	data, err := os.ReadFile(c.mapPath)
	if err != nil {
		if !os.IsNotExist(err) {
			logfServer("spatialserve: reading saved cluster map: %v", err)
		}
		return nil
	}
	var m cluster.Map
	if err := json.Unmarshal(data, &m); err != nil {
		logfServer("spatialserve: corrupt saved cluster map %s: %v", c.mapPath, err)
		return nil
	}
	if err := m.Validate(); err != nil {
		logfServer("spatialserve: invalid saved cluster map %s: %v", c.mapPath, err)
		return nil
	}
	return &m
}

// saveMap persists the current map (atomic rename, best-effort: a write
// failure costs override durability, not availability).
func (c *clusterNode) saveMap() {
	if c.mapPath == "" {
		return
	}
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	m := c.map_()
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	tmp := c.mapPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		logfServer("spatialserve: saving cluster map: %v", err)
		return
	}
	if err := os.Rename(tmp, c.mapPath); err != nil {
		logfServer("spatialserve: saving cluster map: %v", err)
	}
}

// isInternal reports whether the request came from a peer node rather
// than a client.
func isInternal(r *http.Request) bool { return r.Header.Get(headerInternal) != "" }

// internalHeader returns the header set marking node-to-node requests.
func internalHeader() http.Header {
	return http.Header{headerInternal: []string{"1"}, "Content-Type": []string{"application/json"}}
}

// errBreakerOpen marks a call refused locally: the target node's circuit
// breaker is open, so the router fails fast instead of burning a timeout
// on a peer that has been failing consecutively.
var errBreakerOpen = errors.New("circuit breaker open")

// callNode runs one request against a peer, gated by and recorded into
// the per-node health registry: an open breaker refuses the call without
// touching the network, and every outcome (transport error or 5xx counts
// as failure) feeds the breaker and the latency EWMA.
func (c *clusterNode) callNode(ctx context.Context, node cluster.Node, method, url string, body []byte, hdr http.Header) (*cluster.Response, error) {
	if !c.health.Allow(node.ID) {
		return nil, fmt.Errorf("%w: node %s", errBreakerOpen, node.ID)
	}
	start := time.Now()
	resp, err := c.client.Do(ctx, method, url, body, withTraceHeader(ctx, hdr))
	c.health.Record(node.ID, err == nil && resp.Status < 500, time.Since(start))
	return resp, err
}

// withTraceHeader stamps the context's request ID and W3C traceparent
// onto a copy of hdr so a scatter-gather's sub-requests carry the
// originating request's identity: the receiving node's root span becomes
// a child of the caller's active span and the whole fan-out can be
// reassembled into one tree by GET /admin/trace/{id}.
func withTraceHeader(ctx context.Context, hdr http.Header) http.Header {
	rid := requestIDFrom(ctx)
	tp := trace.TraceparentFromContext(ctx)
	if rid == "" && tp == "" {
		return hdr
	}
	h := hdr.Clone()
	if h == nil {
		h = http.Header{}
	}
	if rid != "" {
		h.Set(headerRequestID, rid)
	}
	if tp != "" {
		h.Set(headerTraceparent, tp)
	}
	return h
}

// map_ returns the current partition map.
func (c *clusterNode) map_() *cluster.Map { return c.pmap.Load() }

// self returns this node's map entry (URL included) when present.
func (c *clusterNode) self() cluster.Node {
	if n, ok := c.map_().NodeByID(c.selfID); ok {
		return n
	}
	return cluster.Node{ID: c.selfID}
}

// owns reports whether this node owns the shard under the current map.
func (c *clusterNode) owns(shard string) bool {
	n, ok := c.map_().Owner(shard)
	return ok && n.ID == c.selfID
}

// adopt installs m if it is valid and strictly newer than the current
// map, reporting whether it was adopted.
func (c *clusterNode) adopt(m *cluster.Map) bool {
	if m == nil || m.Validate() != nil {
		return false
	}
	for {
		cur := c.pmap.Load()
		if m.Version <= cur.Version {
			return false
		}
		if c.pmap.CompareAndSwap(cur, m.EnsureRing()) {
			c.saveMap()
			return true
		}
	}
}

// refreshFrom pulls /admin/ring from a peer and adopts a newer map -
// how a router heals after racing a rebalance.
func (c *clusterNode) refreshFrom(ctx context.Context, baseURL string) {
	resp, err := c.client.Do(ctx, http.MethodGet, baseURL+"/admin/ring", nil, internalHeader())
	if err != nil || resp.Status != http.StatusOK {
		return
	}
	var rr ringResponse
	if json.Unmarshal(resp.Body, &rr) == nil {
		c.adopt(rr.Map)
	}
}

// broadcastMap pushes the current map to every peer, best-effort (a peer
// that misses it self-heals through refreshFrom on its next stale hit).
func (c *clusterNode) broadcastMap(ctx context.Context) {
	m := c.map_()
	body, err := json.Marshal(m)
	if err != nil {
		return
	}
	for _, n := range m.Nodes {
		if n.ID == c.selfID {
			continue
		}
		if _, err := c.client.Do(ctx, http.MethodPost, n.URL+"/admin/ring", body, withTraceHeader(ctx, internalHeader())); err != nil {
			logfServer("spatialserve: map broadcast to %s failed: %v", n.ID, err)
		}
	}
}

// shardPath returns the URL path of a shard's estimator endpoint.
func shardPath(shard, suffix string) string {
	return "/v1/estimators/" + url.PathEscape(shard) + suffix
}

// logfServer is the cluster/replication layer's logger; a variable so
// tests can capture or silence it.
var logfServer = log.Printf

// ---- routing: create / delete ----

// routeCreate fans an estimator creation out to every partition owner.
func (c *clusterNode) routeCreate(ctx context.Context, w http.ResponseWriter, req *createRequest) {
	if strings.Contains(req.Name, "#") {
		writeError(w, http.StatusBadRequest, "estimator names must not contain %q in cluster mode (reserved for shard keys)", "#")
		return
	}
	// Validate kind/config once up front so a bad request gets a clean 400
	// and cannot create a partial fan-out. Building (and discarding) a
	// real estimator is a deliberate tradeoff: it is the one validator
	// that can never drift from what the shards will accept, and create
	// is a cold path.
	probe, err := buildServable(req.Kind, req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if be, terr := c.checkClusterBudget(ctx, req.Name, probe); terr != nil {
		writeError(w, http.StatusBadGateway, "checking tenant budget: %v", terr)
		return
	} else if be != nil {
		writeBudgetError(w, be)
		return
	}
	existed, errs := cluster.Scatter(c.parts, func(p int) (bool, error) {
		shard := cluster.ShardName(req.Name, p)
		screq := *req
		screq.Name = shard
		return c.createShard(ctx, shard, &screq)
	})
	if err := cluster.FirstError(errs); err != nil {
		writeError(w, http.StatusBadGateway, "partitioned create incomplete (re-issue the create or delete the name): %v", err)
		return
	}
	// Existing shards count as created - that is what makes re-issuing a
	// partially failed create converge - but if EVERY shard already
	// existed, this is a plain duplicate create and says so.
	all := true
	for _, e := range existed {
		all = all && e
	}
	if all {
		writeError(w, http.StatusConflict, "estimator %q already exists", req.Name)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": req.Name, "kind": req.Kind, "config": req.Config, "partitions": c.parts,
	})
}

// createShard creates one shard at its owner (an already existing shard
// counts as success and is reported), retrying through a map refresh when
// the owner moved.
func (c *clusterNode) createShard(ctx context.Context, shard string, req *createRequest) (existed bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := c.backoff.Wait(ctx, attempt); err != nil {
			break
		}
		owner, ok := c.map_().Owner(shard)
		if !ok {
			return false, fmt.Errorf("no owner for %q", shard)
		}
		if owner.ID == c.selfID {
			_, err := c.srv.createLocal(ctx, req, false)
			if err == nil {
				return false, nil
			}
			if errors.Is(err, errAlreadyExists) {
				return true, nil
			}
			lastErr = err
		} else {
			resp, err := c.callNode(ctx, owner, http.MethodPost, owner.URL+"/v1/estimators", body, internalHeader())
			if err != nil {
				lastErr = err
			} else if resp.Status == http.StatusCreated {
				return false, nil
			} else if resp.Status == http.StatusConflict {
				return true, nil
			} else {
				lastErr = fmt.Errorf("creating %q on %s: status %d: %s", shard, owner.ID, resp.Status, resp.Body)
			}
			c.refreshFrom(ctx, owner.URL)
		}
	}
	return false, lastErr
}

// routeDelete fans a delete out to every partition owner. Missing shards
// are tolerated (a half-created name can still be deleted); only when NO
// shard existed is 404 returned.
func (c *clusterNode) routeDelete(ctx context.Context, w http.ResponseWriter, name string) {
	c.readCacheDrop(name)
	found, errs := cluster.Scatter(c.parts, func(p int) (bool, error) {
		return c.deleteShard(ctx, cluster.ShardName(name, p))
	})
	if err := cluster.FirstError(errs); err != nil {
		writeError(w, http.StatusBadGateway, "partitioned delete incomplete: %v", err)
		return
	}
	any := false
	for _, f := range found {
		any = any || f
	}
	if !any {
		writeError(w, http.StatusNotFound, "no estimator %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// deleteShard removes one shard at its owner, reporting whether it
// existed.
func (c *clusterNode) deleteShard(ctx context.Context, shard string) (bool, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := c.backoff.Wait(ctx, attempt); err != nil {
			break
		}
		owner, ok := c.map_().Owner(shard)
		if !ok {
			return false, fmt.Errorf("no owner for %q", shard)
		}
		if owner.ID == c.selfID {
			found, err := c.srv.deleteLocal(ctx, shard)
			if err == nil {
				return found, nil
			}
			lastErr = err
		} else {
			resp, err := c.callNode(ctx, owner, http.MethodDelete, owner.URL+shardPath(shard, ""), nil, internalHeader())
			if err != nil {
				lastErr = err
			} else if resp.Status == http.StatusOK {
				return true, nil
			} else if resp.Status == http.StatusNotFound {
				return false, nil
			} else {
				lastErr = fmt.Errorf("deleting %q on %s: status %d: %s", shard, owner.ID, resp.Status, resp.Body)
			}
			c.refreshFrom(ctx, owner.URL)
		}
	}
	return false, lastErr
}

// ---- routing: updates ----

// shardClientError marks a shard holder's 4xx rejection - the client's
// mistake (wrong side, bad geometry), reported as 400, never retried.
type shardClientError struct{ msg string }

// Error returns the shard holder's rejection message.
func (e *shardClientError) Error() string { return e.msg }

// partialUpdateError reports a plain update some of whose partitions
// failed. A plain update is never resent, so the partitions that applied
// stay applied (partition sub-batches are not atomic, see
// docs/CLUSTER.md), and the answer names how many records landed.
type partialUpdateError struct {
	applied int
	err     error
}

// Error names the applied count and the first partition failure.
func (e *partialUpdateError) Error() string {
	return fmt.Sprintf("partitioned update incomplete (%d records applied): %v", e.applied, e.err)
}

// errForwardFailed marks an ingest fan-out that exhausted its retries -
// retryable from the client's side (nothing was acked; owners that did
// apply their sub-batches dedup the resend).
var errForwardFailed = errors.New("ingest forward failed after retries")

// routeIngest splits one record batch per record by routing hash and
// fans the partitions' sub-batches out to their owners. An exactly-once
// batch stamps every sub-batch with the SAME (session, seq). Each owner
// dedups on its own durable (session, shard) watermark, so a partial
// fan-out failure followed by the client's retry re-applies only at
// owners that missed it, and the batch is a duplicate when every owner
// says so, whichever router it came through. The router takes no mark
// here: an Idempotency-Key's marks live at its owners alone, and a
// stream's resume mark is ingestOneBatch's. A sessionless (plain) batch
// is never resent after an ambiguous failure, so a partial failure is
// final: it reports the applied count (partialUpdateError).
func (c *clusterNode) routeIngest(ctx context.Context, name, session string, batch ingest.Batch) (int, bool, error) {
	recs, err := batch.DecodeRecords()
	if err != nil {
		return 0, false, &shardClientError{err.Error()}
	}
	// The routing hash ignores the operation, so a delete always lands on
	// the partition holding its insert. Only partitions with records are
	// forwarded: a single-record update makes one forward on the calling
	// goroutine.
	parts := make([]ingest.Batch, c.parts)
	var live []int
	for _, rec := range recs {
		p := cluster.PartitionOf(rec.RoutingHash(), c.parts)
		if parts[p].Count == 0 {
			live = append(live, p)
		}
		parts[p].Records = rec.AppendBinary(parts[p].Records)
		parts[p].Count++
	}
	// Deliberately detached from cancellation: once the fan-out starts,
	// it runs to completion so the ack decision (and a plain update's
	// applied count) is made on the owners' real state, not on a client
	// disconnect. Trace values (and the request ID) still flow, so
	// sub-requests stitch into the caller's trace.
	ctx = context.WithoutCancel(ctx)
	acks, errs := cluster.Scatter(len(live), func(i int) (ingestShardResponse, error) {
		p := live[i]
		parts[p].Seq = batch.Seq
		return c.forwardShardIngest(ctx, cluster.ShardName(name, p), session, parts[p])
	})
	total, deduped := 0, len(acks) > 0
	for _, a := range acks {
		total += a.Applied
		deduped = deduped && a.Deduped
	}
	if err := cluster.FirstError(errs); err != nil {
		if session == "" {
			return total, false, plainFanoutError(name, total, errs)
		}
		// Some owners may have applied their sub-batches; the batch is NOT
		// acked, the client resends it whole, and the owners that applied
		// drop the duplicate - no double-apply, no loss.
		return total, false, err
	}
	return total, deduped, nil
}

// plainFanoutError classifies a failed fan-out of a plain update, errs
// holding one error per partition with records: every partition missing
// means the estimator does not exist (404, as on one node); a shard
// holder's rejection is the client's mistake (400); anything else is a
// cluster-side failure that keeps what the other partitions applied
// (502 with the applied count).
func plainFanoutError(name string, applied int, errs []error) error {
	allMissing := true
	var clientErr *shardClientError
	for _, err := range errs {
		if err != nil {
			errors.As(err, &clientErr)
		}
		if !errors.Is(err, errShardMissing) {
			allMissing = false
		}
	}
	switch {
	case allMissing:
		return fmt.Errorf("%w: %q", errNotFoundLocal, name)
	case clientErr != nil:
		return clientErr
	}
	return &partialUpdateError{applied: applied, err: cluster.FirstError(errs)}
}

// forwardShardIngest delivers one partition's sub-batch to its owner and
// returns the owner's ack, healing through a map refresh when the shard
// just moved. Definite
// refusals - breaker open, 404, 409, 429 - are retried for every batch:
// the owner applied nothing. A transport error or 5xx after the body was
// sent is ambiguous, and only a batch with a session is resent after
// one: it carries (session, seq), so re-sending something the owner
// already committed dedups instead of double-applying - the whole point
// of the sequenced protocol. A plain batch fails its partition there, as
// a sketch counts every application. A shard still missing after a map
// refresh reports errShardMissing; the owner's 4xx reports
// shardClientError.
func (c *clusterNode) forwardShardIngest(ctx context.Context, shard, session string, batch ingest.Batch) (ack ingestShardResponse, err error) {
	ctx, sp := c.srv.tracer.Start(ctx, "fanout.ingest")
	sp.SetAttr("shard", shard)
	sp.SetAttr("seq", strconv.FormatUint(batch.Seq, 10))
	defer func() {
		if err != nil {
			sp.Fail(err.Error())
		}
		sp.End()
	}()
	body := appendIngestRest(nil, session, batch)
	resendable := session != ""
	var lastErr error
	missing := 0
	for attempt := 0; attempt < 6; attempt++ {
		if err := c.backoff.Wait(ctx, attempt); err != nil {
			break
		}
		owner, ok := c.map_().Owner(shard)
		if !ok {
			return ack, fmt.Errorf("no owner for %q", shard)
		}
		if owner.ID == c.selfID {
			applied, deduped, err := c.srv.applyIngestBatch(ctx, shard, session, batch)
			switch {
			case err == nil:
				return ingestShardResponse{Applied: applied, Deduped: deduped}, nil
			case errors.Is(err, errNotFoundLocal):
				missing++
				if missing >= 2 {
					return ack, fmt.Errorf("%w: %q", errShardMissing, shard)
				}
				lastErr = err
			case errors.Is(err, errNotOwner) || err == errStaleBinding || errors.Is(err, errSessionTableFull):
				lastErr = err
			default:
				var lf *logFailure
				if errors.As(err, &lf) {
					return ack, err
				}
				return ack, &shardClientError{err.Error()}
			}
			c.refreshAny(ctx)
		} else {
			resp, err := c.callNode(ctx, owner, http.MethodPost, owner.URL+shardPath(shard, "/ingest"), body, internalHeader())
			if err != nil {
				if !resendable && !errors.Is(err, errBreakerOpen) {
					return ack, fmt.Errorf("ingesting into %q on %s: %w", shard, owner.ID, err)
				}
				lastErr = err
				c.refreshAny(ctx)
				continue
			}
			switch resp.Status {
			case http.StatusOK:
				err := json.Unmarshal(resp.Body, &ack)
				return ack, err
			case http.StatusNotFound:
				missing++
				if missing >= 2 {
					return ack, fmt.Errorf("%w: %q on %s", errShardMissing, shard, owner.ID)
				}
				lastErr = fmt.Errorf("ingesting into %q on %s: status %d: %s", shard, owner.ID, resp.Status, resp.Body)
				c.refreshFrom(ctx, owner.URL)
			case http.StatusConflict:
				lastErr = fmt.Errorf("ingesting into %q on %s: status %d: %s", shard, owner.ID, resp.Status, resp.Body)
				c.refreshFrom(ctx, owner.URL)
			case http.StatusTooManyRequests:
				lastErr = fmt.Errorf("ingesting into %q on %s: overloaded", shard, owner.ID)
			case http.StatusBadRequest:
				var er errorResponse
				if json.Unmarshal(resp.Body, &er) == nil && er.Error != "" {
					return ack, &shardClientError{er.Error}
				}
				return ack, &shardClientError{string(resp.Body)}
			default:
				// 5xx at the owner (WAL outage, mid-crash): resent only
				// with a session, for the same dedup reason as transport
				// errors.
				lastErr = fmt.Errorf("ingesting into %q on %s: status %d: %s", shard, owner.ID, resp.Status, resp.Body)
				if !resendable {
					return ack, lastErr
				}
				c.refreshFrom(ctx, owner.URL)
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("retries exhausted")
	}
	return ack, fmt.Errorf("%w: %v", errForwardFailed, lastErr)
}

// refreshAny refreshes the map from any reachable peer.
func (c *clusterNode) refreshAny(ctx context.Context) {
	for _, n := range c.map_().Nodes {
		if n.ID != c.selfID {
			c.refreshFrom(ctx, n.URL)
			return
		}
	}
}

// ---- routing: estimates, snapshots, info, list ----

// errShardMissing marks a partition whose owner has no copy of the shard.
var errShardMissing = errors.New("shard not found at its owner")

// routeEstimate answers an estimate for a base estimator name by
// gathering every partition and estimating on the merged synopsis - exact
// by linearity: the merged counters equal a single-node build's. With
// partialOK (the client sent ?partial=ok), unreachable partitions degrade
// the answer instead of failing it: the response merges the reachable
// partitions and reports partial/partitions_answered/partitions_total.
func (c *clusterNode) routeEstimate(ctx context.Context, w http.ResponseWriter, name string, req *estimateRequest, partialOK bool) {
	est, answered, err := c.gatherCached(ctx, name, partialOK)
	if errors.Is(err, errNotFoundLocal) {
		writeError(w, http.StatusNotFound, "no estimator %q", name)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	var rep partialReport
	if answered < c.parts {
		rep = partialReport{Partial: true, PartitionsAnswered: answered, PartitionsTotal: c.parts}
	}
	serveEstimate(w, est, req, rep)
}

// routeInfo serves a base estimator's info document from the gathered
// merged synopsis (counts sum across partitions).
func (c *clusterNode) routeInfo(ctx context.Context, w http.ResponseWriter, name string) {
	est, _, err := c.gatherCached(ctx, name, false)
	if errors.Is(err, errNotFoundLocal) {
		writeError(w, http.StatusNotFound, "no estimator %q", name)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, infoResponse{
		Name: name, Kind: est.kind().String(), Config: est.configJSON(),
		Counts: est.counts(), Instances: est.instances(), SpaceWords: est.spaceWords(),
	})
}

// listCluster gathers every node's registry entries, maps shard keys
// back to their base estimator names and sorts them; it fails unless
// every node answers.
func (c *clusterNode) listCluster(ctx context.Context) ([]listEntry, error) {
	m := c.map_()
	lists, errs := cluster.Scatter(len(m.Nodes), func(i int) ([]listEntry, error) {
		n := m.Nodes[i]
		if n.ID == c.selfID {
			return c.srv.localList(), nil
		}
		resp, err := c.callNode(ctx, n, http.MethodGet, n.URL+"/v1/estimators", nil, internalHeader())
		if err != nil {
			return nil, err
		}
		if resp.Status != http.StatusOK {
			return nil, fmt.Errorf("listing on %s: status %d", n.ID, resp.Status)
		}
		var body struct {
			Estimators []listEntry `json:"estimators"`
		}
		if err := json.Unmarshal(resp.Body, &body); err != nil {
			return nil, err
		}
		return body.Estimators, nil
	})
	if err := cluster.FirstError(errs); err != nil {
		return nil, err
	}
	kinds := map[string]string{}
	for _, list := range lists {
		for _, e := range list {
			name := e.Name
			if base, _, ok := cluster.SplitShardName(name); ok {
				name = base
			}
			kinds[name] = e.Kind
		}
	}
	out := make([]listEntry, 0, len(kinds))
	for name, kind := range kinds {
		out = append(out, listEntry{Name: name, Kind: kind})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ---- routing: tenants ----

// broadcastTenant installs (PUT) or removes (DELETE) a tenant config on
// every node, self included. Tenant configs are cluster metadata: each
// node enforces admission locally and any router must be able to enforce
// the budget, so the fan-out must fully succeed - a partial failure is
// reported to the client for re-issue (both operations are idempotent).
func (c *clusterNode) broadcastTenant(ctx context.Context, method, tenant string, cfg *TenantConfig) error {
	m := c.map_()
	var body []byte
	if cfg != nil {
		var err error
		if body, err = json.Marshal(cfg); err != nil {
			return err
		}
	}
	_, errs := cluster.Scatter(len(m.Nodes), func(i int) (struct{}, error) {
		n := m.Nodes[i]
		if n.ID == c.selfID {
			if method == http.MethodDelete {
				_, err := c.srv.deleteTenantLocal(ctx, tenant)
				return struct{}{}, err
			}
			return struct{}{}, c.srv.setTenantLocal(ctx, tenant, *cfg)
		}
		resp, err := c.callNode(ctx, n, method, n.URL+"/v1/tenants/"+url.PathEscape(tenant), body, internalHeader())
		if err != nil {
			return struct{}{}, err
		}
		// A DELETE on a node that never saw the config answers 404; the
		// config is equally gone there, so that counts as success.
		if resp.Status != http.StatusOK && !(method == http.MethodDelete && resp.Status == http.StatusNotFound) {
			return struct{}{}, fmt.Errorf("tenant %s on %s: status %d: %s", method, n.ID, resp.Status, resp.Body)
		}
		return struct{}{}, nil
	})
	return cluster.FirstError(errs)
}

// clusterTenantUsage sums a tenant's SpaceWords across every node,
// itemized per base estimator name (shard partitions fold into their
// base key, so the breakdown reads like the single-node one).
func (c *clusterNode) clusterTenantUsage(ctx context.Context, tenant string) (int64, []budgetEntry, error) {
	m := c.map_()
	perNode, errs := cluster.Scatter(len(m.Nodes), func(i int) ([]budgetEntry, error) {
		n := m.Nodes[i]
		if n.ID == c.selfID {
			c.srv.mu.RLock()
			_, entries := c.srv.tenantUsageLocked(tenant)
			c.srv.mu.RUnlock()
			return entries, nil
		}
		resp, err := c.callNode(ctx, n, http.MethodGet, n.URL+"/v1/tenants/"+url.PathEscape(tenant), nil, internalHeader())
		if err != nil {
			return nil, err
		}
		if resp.Status != http.StatusOK {
			return nil, fmt.Errorf("tenant usage on %s: status %d: %s", n.ID, resp.Status, resp.Body)
		}
		var info tenantInfoResponse
		if err := json.Unmarshal(resp.Body, &info); err != nil {
			return nil, err
		}
		return info.Estimators, nil
	})
	if err := cluster.FirstError(errs); err != nil {
		return 0, nil, err
	}
	perBase := map[string]int64{}
	var used int64
	for _, entries := range perNode {
		for _, e := range entries {
			name := e.Name
			if base, _, ok := cluster.SplitShardName(name); ok {
				name = base
			}
			perBase[name] += e.SpaceWords
			used += e.SpaceWords
		}
	}
	names := make([]string, 0, len(perBase))
	for n := range perBase {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make([]budgetEntry, len(names))
	for i, n := range names {
		entries[i] = budgetEntry{Name: n, SpaceWords: perBase[n]}
	}
	return used, entries, nil
}

// checkClusterBudget enforces the tenant's memory budget for a
// partitioned create at the routing node: the cost is partitions x the
// per-shard SpaceWords (every partition is built from the same config),
// charged against the tenant's cluster-wide usage. Shard owners skip
// their local check for internal creates, so the router's verdict is the
// only one. A non-nil *budgetError is a real rejection (413); the plain
// error reports an unreachable node (502).
func (c *clusterNode) checkClusterBudget(ctx context.Context, name string, probe servable) (*budgetError, error) {
	tenant, _ := splitTenant(name)
	ts := c.srv.tenants.get(tenant)
	if ts == nil || ts.cfg.MemoryBudgetWords <= 0 {
		return nil, nil
	}
	used, entries, err := c.clusterTenantUsage(ctx, tenant)
	if err != nil {
		return nil, err
	}
	cost := int64(probe.spaceWords()) * int64(c.parts)
	if used+cost <= ts.cfg.MemoryBudgetWords {
		return nil, nil
	}
	return &budgetError{breakdown: budgetBreakdown{
		Tenant:         tenant,
		BudgetWords:    ts.cfg.MemoryBudgetWords,
		UsedWords:      used,
		RequestedWords: cost,
		Estimators:     entries,
	}}, nil
}

// routeTenantInfo answers GET /v1/tenants/{tenant} in cluster mode: the
// local config copy (the broadcast keeps every node in sync) plus the
// cluster-wide usage.
func (c *clusterNode) routeTenantInfo(ctx context.Context, w http.ResponseWriter, tenant string) {
	ts := c.srv.tenants.get(tenant)
	if ts == nil && tenant != DefaultTenant {
		writeError(w, http.StatusNotFound, "no tenant %q", tenant)
		return
	}
	used, entries, err := c.clusterTenantUsage(ctx, tenant)
	if err != nil {
		writeError(w, http.StatusBadGateway, "gathering tenant usage: %v", err)
		return
	}
	var cfg TenantConfig
	if ts != nil {
		cfg = ts.cfg
	}
	writeJSON(w, http.StatusOK, tenantInfoResponse{Tenant: tenant, Config: cfg, UsedWords: used, Estimators: entries})
}

// ---- admin: ring status, map adoption, rebalance ----

// ringResponse is the /admin/ring status document: the node's identity,
// the partition map, and - where applicable - the WAL frontier and the
// replication state.
type ringResponse struct {
	// Clustered reports whether cluster mode is on.
	Clustered bool `json:"clustered"`
	// Self is this node's ID (cluster mode only).
	Self string `json:"self,omitempty"`
	// Partitions is the per-estimator partition count (cluster mode only).
	Partitions int `json:"partitions,omitempty"`
	// Map is the current partition map (cluster mode only).
	Map *cluster.Map `json:"map,omitempty"`
	// Health is this router's per-peer breaker and latency view (cluster
	// mode only).
	Health []cluster.NodeHealth `json:"health,omitempty"`
	// WalPos is the current WAL frontier (persistent nodes only).
	WalPos string `json:"walPos,omitempty"`
	// Replica is the replication status (followers only).
	Replica *replicaStatus `json:"replica,omitempty"`
}

// handleRingGet serves the node's cluster/replication status.
func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	resp := ringResponse{}
	if s.cluster != nil {
		resp.Clustered = true
		resp.Self = s.cluster.selfID
		resp.Partitions = s.cluster.parts
		resp.Map = s.cluster.map_()
		resp.Health = s.cluster.health.Snapshot()
	}
	if s.persist != nil {
		resp.WalPos = s.persist.w.Pos().String()
	}
	if s.replica != nil {
		resp.Replica = s.replica.status()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRingAdopt ingests a broadcast partition map, adopting it when it
// is strictly newer, and always answers with the current map.
func (s *Server) handleRingAdopt(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusConflict, "cluster mode is disabled (start with -peers/-node-id)")
		return
	}
	var m cluster.Map
	if !decodeJSON(w, r, &m) {
		return
	}
	if err := m.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cluster.adopt(&m)
	writeJSON(w, http.StatusOK, map[string]any{"map": s.cluster.map_()})
}

// rebalanceRequest asks the cluster to move one partition of one
// estimator to an explicit target node.
type rebalanceRequest struct {
	// Name is the base estimator name.
	Name string `json:"name"`
	// Partition is the partition index to move.
	Partition int `json:"partition"`
	// Target is the node ID that should own the partition afterwards.
	Target string `json:"target"`
}

// handleRebalance moves one shard to a new owner. Any node accepts the
// request and forwards it to the shard's current owner, which runs the
// handoff protocol.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeError(w, http.StatusConflict, "cluster mode is disabled (start with -peers/-node-id)")
		return
	}
	var req rebalanceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Partition < 0 || req.Partition >= c.parts {
		writeError(w, http.StatusBadRequest, "partition %d outside [0, %d)", req.Partition, c.parts)
		return
	}
	m := c.map_()
	target, ok := m.NodeByID(req.Target)
	if !ok {
		writeError(w, http.StatusBadRequest, "target node %q is not in the partition map", req.Target)
		return
	}
	shard := cluster.ShardName(req.Name, req.Partition)
	owner, ok := m.Owner(shard)
	if !ok {
		writeError(w, http.StatusBadRequest, "no owner for %q", shard)
		return
	}
	if owner.ID == target.ID {
		writeJSON(w, http.StatusOK, map[string]any{"moved": false, "shard": shard, "owner": owner.ID})
		return
	}
	if owner.ID != c.selfID {
		if isInternal(r) {
			writeError(w, http.StatusConflict, "%v", errNotOwner)
			return
		}
		body, _ := json.Marshal(req)
		resp, err := c.client.Do(r.Context(), http.MethodPost, owner.URL+"/admin/rebalance", body, withTraceHeader(r.Context(), internalHeader()))
		if err != nil {
			writeError(w, http.StatusBadGateway, "forwarding rebalance to %s: %v", owner.ID, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.Status)
		w.Write(resp.Body)
		return
	}
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	if err := c.handoff(r.Context(), shard, target); err != nil {
		writeError(w, http.StatusInternalServerError, "handoff of %q to %s: %v", shard, target.ID, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"moved": true, "shard": shard, "from": c.selfID, "to": target.ID,
		"mapVersion": c.map_().Version,
	})
}

// handoff moves one local shard to target without losing an update, as a
// one-shard follow: the target applies what it is sent through the WAL
// interpreter and appends it verbatim to its own log, as a replica does
// (handleMove).
//
//  1. Cut: under a brief exclusive gate (no logged mutation in flight),
//     record the WAL position and take the shard's image (moveImage) -
//     in-memory work only, the same cost as a checkpoint cut.
//  2. Catch up: off the gate, ship the image, then this node's own WAL
//     frames naming the shard since the cut, in catch-up passes.
//  3. Seal: retake the gate exclusively, ship the last frames, flip
//     ownership in the partition map, release. From that instant every
//     router either sends to the new owner or gets a stale-map
//     rejection here and heals.
//
// Without a WAL (in-memory cluster) the image ships inside the seal
// instead - a freeze-move, acceptable because there is no durability to
// preserve and snapshots are small.
func (c *clusterNode) handoff(ctx context.Context, shard string, target cluster.Node) (err error) {
	ctx, sp := c.srv.tracer.Start(ctx, "rebalance.handoff")
	sp.SetAttr("shard", shard)
	sp.SetAttr("target", target.ID)
	defer func() {
		if err != nil {
			sp.Fail(err.Error())
		}
		sp.End()
	}()
	s := c.srv
	est, ok := s.lookup(shard)
	if !ok {
		return fmt.Errorf("shard %q is not on this node", shard)
	}
	var pos wal.Pos
	if s.persist != nil {
		s.gate.Lock()
		pos = s.persist.w.Pos()
		img, err := s.moveImage(shard, est, pos)
		s.gate.Unlock()
		if err == nil {
			err = c.shipChunk(ctx, target, shard, img)
		}
		for pass, shipped := 0, true; pass < 8 && shipped && err == nil; pass++ {
			pos, shipped, err = c.shipFrames(ctx, target, shard, pos)
		}
		if err != nil {
			return err
		}
	}
	if err := c.seal(ctx, target, shard, est, pos); err != nil {
		return err
	}
	c.broadcastMap(ctx)
	// Ownership has moved and the target acknowledged its map; no new
	// update can land here, so the local copy is garbage. A failure only
	// leaks memory until the next restart.
	if _, derr := s.deleteLocal(ctx, shard); derr != nil {
		logfServer("spatialserve: dropping handed-off shard %q: %v", shard, derr)
	}
	return nil
}

// seal is the write stall a move puts on every estimator of this node:
// under the exclusive gate it ships what the target still lacks - the
// frames logged since pos, or, without a WAL, the whole image - and flips
// ownership.
func (c *clusterNode) seal(ctx context.Context, target cluster.Node, shard string, est servable, pos wal.Pos) (err error) {
	ctx, sp := c.srv.tracer.Start(ctx, "rebalance.seal")
	defer func() {
		if err != nil {
			sp.Fail(err.Error())
		}
		sp.End()
	}()
	c.srv.gate.Lock()
	defer c.srv.gate.Unlock()
	if c.srv.persist != nil {
		_, _, err = c.shipFrames(ctx, target, shard, pos)
	} else {
		var img []byte
		if img, err = c.srv.moveImage(shard, est, pos); err == nil {
			err = c.shipChunk(ctx, target, shard, img)
		}
	}
	if err != nil {
		return err
	}
	return c.flipOwnership(ctx, shard, target)
}

// moveImage is shard's state as WAL records the interpreter knows - a
// put of its snapshot, then one count-0 ingest record per session mark -
// framed at pos. The caller holds the exclusive mutation gate, so no mark
// is mid-advance and both are exact at pos.
func (s *Server) moveImage(shard string, est servable, pos wal.Pos) ([]byte, error) {
	snap, err := est.snapshot()
	if err != nil {
		return nil, err
	}
	body := appendWalFrame(nil, pos, append(appendName([]byte{walOpPut}, shard), snap...))
	for _, m := range s.sessions.marksFor(shard) {
		rec := appendIngestRest(appendName([]byte{walOpIngest}, shard), m.Session, ingest.Batch{Seq: m.Seq})
		body = appendWalFrame(body, pos, rec)
	}
	return body, nil
}

// shipFrames ships this node's WAL frames naming shard from pos up to the
// log's current end, verbatim, one chunk per maxShipBytes of log read,
// and returns the position after the last record read and whether any
// frame shipped. Updates, ingest batches and session drops ship; a
// registry operation on the shard (create, delete, merge or put) does not
// commute with the move and fails it.
func (c *clusterNode) shipFrames(ctx context.Context, target cluster.Node, shard string, pos wal.Pos) (wal.Pos, bool, error) {
	w := c.srv.persist.w
	end := w.Pos()
	shipped := false
	for pos.Less(end) {
		var body []byte
		next, err := w.ReadFrom(pos, maxShipBytes, func(at wal.Pos, payload []byte) error {
			op, name, _, err := parseWalPayload(payload)
			switch {
			case err != nil:
				return fmt.Errorf("wal record at %v: %w", at, err)
			case name != shard:
			case op == walOpUpdate || op == walOpIngest || op == walOpSessionDrop:
				body = appendWalFrame(body, at, payload)
			default:
				return fmt.Errorf("registry operation (op %d) on %q at %v during the move; retry the rebalance", op, shard, at)
			}
			return nil
		})
		if err == nil && len(body) > 0 {
			shipped = true
			err = c.shipChunk(ctx, target, shard, body)
		}
		if err != nil {
			return pos, shipped, err
		}
		pos = next
	}
	return pos, shipped, nil
}

// shipChunk sends one chunk of a move - WAL shipping frames naming shard -
// to the target's handleMove, inside the move's trace.
func (c *clusterNode) shipChunk(ctx context.Context, target cluster.Node, shard string, body []byte) error {
	resp, err := c.client.Do(ctx, http.MethodPost, target.URL+"/admin/move?shard="+url.QueryEscape(shard), body, withTraceHeader(ctx, internalHeader()))
	if err == nil && resp.Status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.Status, resp.Body)
	}
	if err != nil {
		return fmt.Errorf("moving %d bytes of %q to %s: %w", len(body), shard, target.ID, err)
	}
	return nil
}

// flipOwnership publishes shard's new owner: the override map is pushed
// to the TARGET first (it must know it owns the shard before the source
// lets go - a best-effort broadcast is not enough for the only node that
// will serve it), then installed locally. Called under the exclusive
// gate, so an abort here leaves ownership fully unchanged: the target
// merely holds an inert copy the next attempt replaces.
func (c *clusterNode) flipOwnership(ctx context.Context, shard string, target cluster.Node) error {
	m := c.overriddenMap(shard, target.ID)
	acked := false
	var lastErr error
	for attempt := 0; attempt < 3 && !acked; attempt++ {
		body, err := json.Marshal(m)
		if err != nil {
			return err
		}
		resp, err := c.client.Do(ctx, http.MethodPost, target.URL+"/admin/ring", body, withTraceHeader(ctx, internalHeader()))
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Status != http.StatusOK {
			lastErr = fmt.Errorf("pushing map to %s: status %d: %s", target.ID, resp.Status, resp.Body)
			continue
		}
		// The adopt answers with the target's CURRENT map; confirm the
		// override actually landed. If the target already held a newer map
		// (a concurrent rebalance elsewhere), rebase our override on it
		// and push again.
		var ack struct {
			Map *cluster.Map `json:"map"`
		}
		if err := json.Unmarshal(resp.Body, &ack); err != nil || ack.Map == nil {
			lastErr = fmt.Errorf("pushing map to %s: unreadable ack", target.ID)
			continue
		}
		if ack.Map.Overrides[shard] == target.ID {
			acked = true
			break
		}
		c.adopt(ack.Map)
		m = c.overriddenMapFrom(ack.Map, shard, target.ID)
		lastErr = fmt.Errorf("pushing map to %s: target kept version %d without the override", target.ID, ack.Map.Version)
	}
	if !acked {
		return fmt.Errorf("ownership flip aborted (target never acknowledged the map): %w", lastErr)
	}
	// Install locally with a CAS loop so a concurrently adopted newer map
	// is extended rather than clobbered (the extended map's higher version
	// then wins the broadcast).
	for {
		cur := c.pmap.Load()
		next := c.overriddenMapFrom(cur, shard, target.ID)
		if c.pmap.CompareAndSwap(cur, next.EnsureRing()) {
			c.saveMap()
			return nil
		}
	}
}

// overriddenMap builds (without installing) the current map plus one
// ownership override, version bumped.
func (c *clusterNode) overriddenMap(shard, targetID string) *cluster.Map {
	return c.overriddenMapFrom(c.map_(), shard, targetID)
}

// overriddenMapFrom is overriddenMap against an explicit base map.
func (c *clusterNode) overriddenMapFrom(base *cluster.Map, shard, targetID string) *cluster.Map {
	m := base.Clone()
	if m.Overrides == nil {
		m.Overrides = make(map[string]string)
	}
	m.Overrides[shard] = targetID
	m.Version++
	return m
}
