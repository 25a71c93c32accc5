// Package cluster is the horizontal scale-out substrate of spatialserve:
// a consistent-hash ring with virtual nodes over estimator shard keys, a
// versioned partition map with per-shard overrides (how a completed
// rebalance is expressed), and a fan-out client with per-node timeouts:
// framed reads on pooled peer connections, HTTP for the rest.
//
// The design leans entirely on sketch linearity: every estimator is split
// into a fixed number of partitions, each update record lands on exactly
// one partition (chosen by a stable routing hash), and the merged sum of
// the partition sketches is bit-identical to a single-node build of the
// same update stream. Distribution is therefore exact - the ring decides
// only WHERE counters accumulate, never WHAT they sum to.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// DefaultVNodes is the virtual-node count per physical node used when a
// Map does not set one. More virtual nodes smooth the partition spread at
// the cost of a larger (still tiny) ring table.
const DefaultVNodes = 64

// Node is one cluster member: a stable identity plus the base URL its
// spatialserve HTTP API listens on. Ring placement hashes only the ID, so
// a node can change address (failover promotion of a WAL-shipped replica,
// say) without moving any data.
type Node struct {
	// ID is the stable node identity hashed onto the ring.
	ID string `json:"id"`
	// URL is the node's base HTTP URL, e.g. "http://10.0.0.7:8080".
	URL string `json:"url"`
}

// Map is a versioned partition map: the cluster membership, the
// virtual-node fan-out, and explicit per-shard ownership overrides laid
// down by rebalances. Maps are value-published and must be treated as
// immutable once shared; derive changed maps with Clone.
//
// Version totally orders maps: nodes adopt a received map iff its Version
// is strictly newer than theirs, so a rebalance broadcast and a lagging
// router converge on the newest ownership regardless of arrival order.
type Map struct {
	// Version orders maps; higher wins.
	Version uint64 `json:"version"`
	// VNodes is the virtual-node count per node (0 means DefaultVNodes).
	VNodes int `json:"vnodes,omitempty"`
	// Nodes is the membership. Order is irrelevant to placement.
	Nodes []Node `json:"nodes"`
	// Overrides pins specific shard keys to a node ID, overriding the
	// ring. A completed rebalance is recorded here.
	Overrides map[string]string `json:"overrides,omitempty"`
	// Replicas maps a node ID to the base URL of its attached WAL-shipped
	// read replica (-follow). Fan-out reads fall back to it when the
	// owner's circuit breaker is open; it never serves writes.
	Replicas map[string]string `json:"replicas,omitempty"`

	ring []ringPoint // lazily built, nil until first Owner call
}

// ringPoint is one virtual node position on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into Nodes
}

// Validate reports the first structural problem with the map: no nodes,
// duplicate or empty IDs, missing URLs, or an override naming an unknown
// node.
func (m *Map) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("cluster: map has no nodes")
	}
	seen := make(map[string]bool, len(m.Nodes))
	for _, n := range m.Nodes {
		if n.ID == "" {
			return fmt.Errorf("cluster: node with empty id")
		}
		if n.URL == "" {
			return fmt.Errorf("cluster: node %q has no url", n.ID)
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
	}
	for key, id := range m.Overrides {
		if !seen[id] {
			return fmt.Errorf("cluster: override %q names unknown node %q", key, id)
		}
	}
	for id, url := range m.Replicas {
		if !seen[id] {
			return fmt.Errorf("cluster: replica for unknown node %q", id)
		}
		if url == "" {
			return fmt.Errorf("cluster: replica for node %q has no url", id)
		}
	}
	return nil
}

// ReplicaURL returns the read-replica base URL attached to the node, if
// one is registered in the map.
func (m *Map) ReplicaURL(id string) (string, bool) {
	url, ok := m.Replicas[id]
	return url, ok && url != ""
}

// vnodes resolves the virtual-node count.
func (m *Map) vnodes() int {
	if m.VNodes > 0 {
		return m.VNodes
	}
	return DefaultVNodes
}

// buildRing materializes the sorted virtual-node table. Callers publish
// maps before sharing them (see EnsureRing), so reads never race a build.
func (m *Map) buildRing() {
	v := m.vnodes()
	ring := make([]ringPoint, 0, len(m.Nodes)*v)
	for i, n := range m.Nodes {
		for j := 0; j < v; j++ {
			ring = append(ring, ringPoint{hash: Hash(n.ID + "#" + strconv.Itoa(j)), node: i})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		return ring[a].node < ring[b].node
	})
	m.ring = ring
}

// EnsureRing pre-builds the ring table so the map can be shared read-only
// afterwards (Owner on a published map must not mutate it). It returns m
// for chaining.
func (m *Map) EnsureRing() *Map {
	if m.ring == nil {
		m.buildRing()
	}
	return m
}

// Owner returns the node owning key: the override if one is pinned,
// otherwise the first virtual node clockwise of the key's hash. The bool
// is false only for an empty map.
func (m *Map) Owner(key string) (Node, bool) {
	if len(m.Nodes) == 0 {
		return Node{}, false
	}
	if id, ok := m.Overrides[key]; ok {
		if n, ok := m.NodeByID(id); ok {
			return n, true
		}
	}
	if m.ring == nil {
		m.buildRing()
	}
	h := Hash(key)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0
	}
	return m.Nodes[m.ring[i].node], true
}

// NodeByID looks a member up by identity.
func (m *Map) NodeByID(id string) (Node, bool) {
	for _, n := range m.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// Clone returns a deep copy with no ring table, ready to be mutated and
// re-published under a bumped Version.
func (m *Map) Clone() *Map {
	c := &Map{Version: m.Version, VNodes: m.VNodes, Nodes: append([]Node(nil), m.Nodes...)}
	if m.Overrides != nil {
		c.Overrides = make(map[string]string, len(m.Overrides))
		for k, v := range m.Overrides {
			c.Overrides[k] = v
		}
	}
	if m.Replicas != nil {
		c.Replicas = make(map[string]string, len(m.Replicas))
		for k, v := range m.Replicas {
			c.Replicas[k] = v
		}
	}
	return c
}

// Hash is the cluster's stable 64-bit key hash: FNV-1a finished with a
// 64-bit avalanche mix. The mix matters: ring placement compares full
// 64-bit values, and raw FNV-1a of short keys differing only in a
// trailing digit ("a#0" ... "a#63") clusters in the high bits badly
// enough to starve whole nodes of partitions.
func Hash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// HashBytes is Hash for a byte-slice key (no string allocation).
func HashBytes(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return mix64(h.Sum64())
}

// mix64 is the murmur3 fmix64 finalizer: full-width avalanche so every
// input bit disturbs every output bit.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// PartitionOf maps a routing hash onto one of parts partitions.
func PartitionOf(hash uint64, parts int) int {
	if parts <= 1 {
		return 0
	}
	return int(hash % uint64(parts))
}

// shardSep separates the estimator name from the partition index in a
// shard key. It is rejected in client-facing estimator names, so shard
// keys can never collide with user names.
const shardSep = "#"

// ShardName returns the registry key of partition part of estimator name,
// the unit of ring placement and rebalancing.
func ShardName(name string, part int) string {
	return name + shardSep + strconv.Itoa(part)
}

// SplitShardName is the inverse of ShardName. ok is false for keys that
// are not shard-shaped (no separator, or a malformed partition index).
func SplitShardName(shard string) (name string, part int, ok bool) {
	i := strings.LastIndex(shard, shardSep)
	if i < 0 {
		return "", 0, false
	}
	p, err := strconv.Atoi(shard[i+len(shardSep):])
	if err != nil || p < 0 {
		return "", 0, false
	}
	return shard[:i], p, true
}

// IsShardName reports whether key names a partition shard rather than a
// whole estimator.
func IsShardName(key string) bool {
	_, _, ok := SplitShardName(key)
	return ok
}
