// Package faultinject is a deterministic, seeded fault injector for the
// serving stack's failure-hardening tests: the chaos soak drives a real
// multi-node cluster while this package refuses connections, delays and
// truncates responses, fabricates 5xx answers, partitions node pairs
// asymmetrically, and poisons WAL file operations (short writes, ENOSPC,
// fsync errors) - all from one seeded random stream, with every injected
// fault recorded in an event log the CI job can upload on failure.
//
// Three injection surfaces:
//
//   - Transport wraps an http.RoundTripper. Faults are matched per request
//     by (from, to, method) against the rule table; see Kind for the exact
//     delivery semantics of each fault.
//   - PeerFaults is the same rule table for the calls on pooled peer
//     connections (cluster.Client.Faults); a grouped read matches "GET".
//   - WALHooks satisfies internal/wal's FileHooks, injecting write/sync
//     failures into a node's segment files.
//
// Delivery discipline: every transport fault that FAILS a request does so
// WITHOUT forwarding it (the server never sees the request), so a test
// that counts only acknowledged mutations can treat every failed mutation
// as definitely-not-applied. The one exception is KindTruncate, which must
// forward to have a response to damage - restrict truncation rules to
// idempotent reads (Methods: "GET") when exactness bookkeeping matters.
package faultinject

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

// The fault classes. Latency, Refuse and Status fail (or delay) a request
// before it is forwarded; Truncate forwards and damages the response;
// the WAL kinds apply to file operations, not HTTP.
const (
	// KindLatency sleeps before forwarding. If the request context expires
	// during the sleep the request fails WITHOUT being forwarded, so a
	// latency-faulted mutation is never ambiguously applied.
	KindLatency Kind = iota
	// KindRefuse fails the request with a connection-refused-style error
	// without forwarding it - a dead or unreachable peer.
	KindRefuse
	// KindStatus fabricates an HTTP error response (Status, default 503)
	// without forwarding the request - a sick peer that answers but cannot
	// serve.
	KindStatus
	// KindTruncate forwards the request and cuts the response body short -
	// a torn transfer. The request IS delivered; match this rule to GETs
	// only when mutations must stay definitely-not-applied on failure.
	KindTruncate
	// KindWALWrite fails a WAL segment write with ENOSPC before any byte
	// is written - disk full, nothing durable.
	KindWALWrite
	// KindWALShortWrite writes roughly half of the buffer, then fails with
	// ENOSPC - the torn-tail crash signature.
	KindWALShortWrite
	// KindWALSync fails the segment fsync after a successful write - data
	// in the page cache, durability unknown.
	KindWALSync
)

// String names the fault kind for event logs.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindRefuse:
		return "refuse"
	case KindStatus:
		return "status"
	case KindTruncate:
		return "truncate"
	case KindWALWrite:
		return "wal-write"
	case KindWALShortWrite:
		return "wal-short-write"
	case KindWALSync:
		return "wal-sync"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule is one fault-injection rule. A request (or WAL file operation)
// matches when its source and destination node names match From/To
// (empty or "*" match anything) and, for HTTP faults, its method is in
// Methods. Each match fires with probability P against the injector's
// seeded stream.
type Rule struct {
	// ID identifies the rule for removal; assigned by Add when empty.
	ID string
	// From is the requesting node's name ("" or "*" matches all). WAL
	// rules ignore it.
	From string
	// To is the target node's name ("" or "*" matches all).
	To string
	// Methods is a comma-separated HTTP method list; empty matches all.
	// WAL rules ignore it.
	Methods string
	// Kind selects the fault.
	Kind Kind
	// P is the per-match firing probability in [0, 1]; 0 means 1 (rules
	// added to fire should fire).
	P float64
	// Latency is the injected delay for KindLatency.
	Latency time.Duration
	// Status is the fabricated response code for KindStatus (0 means 503).
	Status int
}

// Event is one recorded injection, for the soak's failure artifact.
type Event struct {
	// Seq is the injection sequence number.
	Seq int
	// At is the wall-clock time of the injection.
	At time.Time
	// Rule is the firing rule's ID.
	Rule string
	// Kind is the injected fault class.
	Kind string
	// From and To are the matched node names.
	From, To string
	// Detail describes the faulted operation (method+URL, or WAL op).
	Detail string
}

// maxEvents bounds the event log; older events are dropped first.
const maxEvents = 16384

// Injector is a seeded fault-injection engine: a rule table, a node-name
// registry (host:port to logical name) and an event log. All methods are
// safe for concurrent use; the fault decisions of concurrent requests are
// drawn from one seeded stream, so a fixed seed yields a reproducible
// fault MIX even when exact interleaving varies.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []Rule
	nextID int
	names  map[string]string // "host:port" -> node name
	events []Event
	seq    int
}

// New returns an Injector drawing from the given seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), names: make(map[string]string)}
}

// NameHost registers the logical node name serving hostport (as it appears
// in request URLs), so rules can name nodes instead of addresses.
func (in *Injector) NameHost(hostport, node string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.names[hostport] = node
}

// Add installs a rule and returns its ID.
func (in *Injector) Add(r Rule) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r.ID == "" {
		in.nextID++
		r.ID = "r" + strconv.Itoa(in.nextID)
	}
	in.rules = append(in.rules, r)
	return r.ID
}

// Remove deletes the rule with the given ID (a no-op for unknown IDs).
func (in *Injector) Remove(id string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.rules {
		if r.ID == id {
			in.rules = append(in.rules[:i], in.rules[i+1:]...)
			return
		}
	}
}

// Heal removes every rule - the faults clear, the cluster may converge.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Partition injects an asymmetric partition: requests from one named node
// to another are refused. Pass "*" to cut a node off from (or toward)
// everyone. Returns the rule ID for later Remove.
func (in *Injector) Partition(from, to string) string {
	return in.Add(Rule{From: from, To: to, Kind: KindRefuse, P: 1})
}

// Events returns a snapshot of the event log.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// Dump writes the event log, one line per injection, to w - the CI soak
// uploads this as its failure artifact.
func (in *Injector) Dump(w io.Writer) error {
	for _, e := range in.Events() {
		if _, err := fmt.Fprintf(w, "%d %s rule=%s kind=%s from=%s to=%s %s\n",
			e.Seq, e.At.Format(time.RFC3339Nano), e.Rule, e.Kind, e.From, e.To, e.Detail); err != nil {
			return err
		}
	}
	return nil
}

// record appends an event (caller holds mu).
func (in *Injector) record(r Rule, from, to, detail string) {
	in.seq++
	if len(in.events) >= maxEvents {
		in.events = in.events[len(in.events)-maxEvents/2:]
	}
	in.events = append(in.events, Event{
		Seq: in.seq, At: time.Now(), Rule: r.ID, Kind: r.Kind.String(),
		From: from, To: to, Detail: detail,
	})
}

// match draws the firing decision for the first rule matching the probe.
// kinds restricts which fault classes the probe can trigger (empty means
// any); WAL kinds and HTTP kinds never cross-match regardless.
func (in *Injector) match(from, to, method string, wantWAL bool, detail string, kinds ...Kind) (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		isWAL := r.Kind >= KindWALWrite
		if isWAL != wantWAL {
			continue
		}
		if len(kinds) > 0 {
			found := false
			for _, k := range kinds {
				if r.Kind == k {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		if !nameMatch(r.From, from) || !nameMatch(r.To, to) {
			continue
		}
		if !wantWAL && !methodMatch(r.Methods, method) {
			continue
		}
		p := r.P
		if p <= 0 {
			p = 1
		}
		if p < 1 && in.rng.Float64() >= p {
			continue
		}
		in.record(r, from, to, detail)
		return r, true
	}
	return Rule{}, false
}

// nameMatch reports whether a rule endpoint pattern accepts a node name.
func nameMatch(pattern, name string) bool {
	return pattern == "" || pattern == "*" || pattern == name
}

// methodMatch reports whether a rule's method list accepts a method.
func methodMatch(list, method string) bool {
	if list == "" {
		return true
	}
	for _, m := range strings.Split(list, ",") {
		if strings.EqualFold(strings.TrimSpace(m), method) {
			return true
		}
	}
	return false
}

// nodeName resolves a request host to its registered node name; unknown
// hosts keep the raw host so wildcard rules still apply to them.
func (in *Injector) nodeName(hostport string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n, ok := in.names[hostport]; ok {
		return n
	}
	return hostport
}
