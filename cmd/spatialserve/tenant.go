package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// Multi-tenant namespaces: registry keys are "tenant/name" (bare names
// belong to the default tenant and stay un-prefixed for backward
// compatibility), and every tenant can carry a config - an exact memory
// budget in paper-accounting words (enforced via the estimators'
// SpaceWords at create/snapshot-PUT/merge time, answered with 413 plus
// the full word breakdown when exceeded) and per-tenant admission limits
// (token-bucket rate and max inflight, layered on top of the global
// gates so one hot tenant sheds before starving others).
//
// The tenant prefix threads through every layer untouched: shard keys
// become "tenant/name#partition" (ShardName just concatenates), WAL
// records and checkpoints carry the qualified key, and replicas replay
// it - so per-tenant cluster estimates stay bit-identical to single-node
// per-tenant builds.

// DefaultTenant is the tenant that owns bare (un-prefixed) estimator
// names. It needs no registration; configuring it applies budgets and
// rate limits to all bare-name traffic.
const DefaultTenant = "default"

// tenantSep separates the tenant prefix from the estimator name inside a
// registry key.
const tenantSep = "/"

// TenantConfig is a tenant's wire-visible configuration. Zero values
// mean "unlimited" for every field.
type TenantConfig struct {
	// MemoryBudgetWords caps the summed SpaceWords of the tenant's
	// estimators, in the paper's word accounting. In cluster mode every
	// partition counts (an estimator costs partitions x SpaceWords).
	MemoryBudgetWords int64 `json:"memoryBudgetWords,omitempty"`
	// RateQPS is the tenant's token-bucket refill rate; requests beyond
	// it are shed with 429 before the handlers run.
	RateQPS float64 `json:"rateQPS,omitempty"`
	// RateBurst is the tenant bucket capacity (0 = one second of RateQPS).
	RateBurst int `json:"rateBurst,omitempty"`
	// MaxInflight caps the tenant's concurrently served requests.
	MaxInflight int `json:"maxInflight,omitempty"`
}

// tenantState is the live per-tenant state: the config plus the admission
// gates derived from it.
type tenantState struct {
	cfg      TenantConfig
	bucket   *tokenBucket
	inflight atomic.Int64
}

// newTenantState builds the live state for a config.
func newTenantState(cfg TenantConfig) *tenantState {
	ts := &tenantState{cfg: cfg}
	if cfg.RateQPS > 0 {
		ts.bucket = newTokenBucket(cfg.RateQPS, cfg.RateBurst)
	}
	return ts
}

// tenantRegistry holds the configured tenants of one server.
type tenantRegistry struct {
	mu      sync.RWMutex
	tenants map[string]*tenantState
}

// get returns the live state for a tenant, nil when unconfigured.
func (tr *tenantRegistry) get(tenant string) *tenantState {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.tenants[tenant]
}

// set installs (or replaces) a tenant's config, rebuilding its gates.
func (tr *tenantRegistry) set(tenant string, cfg TenantConfig) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.tenants[tenant] = newTenantState(cfg)
}

// replace installs exactly cfgs (an image's tenants), dropping every
// other tenant.
func (tr *tenantRegistry) replace(cfgs map[string]TenantConfig) {
	tenants := make(map[string]*tenantState, len(cfgs))
	for t, cfg := range cfgs {
		tenants[t] = newTenantState(cfg)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.tenants = tenants
}

// delete removes a tenant's config, reporting whether it existed.
func (tr *tenantRegistry) delete(tenant string) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, ok := tr.tenants[tenant]
	delete(tr.tenants, tenant)
	return ok
}

// names returns the configured tenant names, sorted.
func (tr *tenantRegistry) names() []string {
	tr.mu.RLock()
	out := make([]string, 0, len(tr.tenants))
	for t := range tr.tenants {
		out = append(out, t)
	}
	tr.mu.RUnlock()
	sort.Strings(out)
	return out
}

// known reports whether the tenant is configured (the default tenant is
// always known).
func (tr *tenantRegistry) known(tenant string) bool {
	if tenant == DefaultTenant {
		return true
	}
	return tr.get(tenant) != nil
}

// configs returns a copy of every tenant's config (for images).
func (tr *tenantRegistry) configs() map[string]TenantConfig {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	out := make(map[string]TenantConfig, len(tr.tenants))
	for t, ts := range tr.tenants {
		out[t] = ts.cfg
	}
	return out
}

// splitTenant resolves a registry key into its tenant and local name:
// "a/x" is tenant "a", bare "x" belongs to the default tenant. Shard
// suffixes pass through inside the local name.
func splitTenant(key string) (tenant, name string) {
	if t, n, ok := strings.Cut(key, tenantSep); ok {
		return t, n
	}
	return DefaultTenant, key
}

// qualifiedName builds the registry key for a tenant's estimator: the
// default tenant stays un-prefixed (backward compatible with every
// pre-tenant deployment, WAL and checkpoint), every other tenant
// prefixes "tenant/".
func qualifiedName(tenant, name string) string {
	if tenant == DefaultTenant {
		return name
	}
	return tenant + tenantSep + name
}

// validTenantName rejects tenant names that would collide with the key
// syntax: empty, or containing the separator or a shard marker.
func validTenantName(tenant string) error {
	if tenant == "" {
		return fmt.Errorf("tenant name is required")
	}
	if strings.ContainsAny(tenant, "/#") {
		return fmt.Errorf("tenant name %q must not contain %q or %q", tenant, "/", "#")
	}
	return nil
}

// validLocalName rejects estimator names that would collide with the key
// syntax inside a tenant namespace.
func validLocalName(name string) error {
	if name == "" {
		return fmt.Errorf("estimator name is required")
	}
	if strings.ContainsAny(name, "/#") {
		return fmt.Errorf("estimator name %q must not contain %q (tenant separator) or %q (shard marker)", name, "/", "#")
	}
	return nil
}

// ---- memory budgets ----

// budgetEntry is one estimator's share in a 413 accounting breakdown.
type budgetEntry struct {
	Name       string `json:"name"`
	SpaceWords int64  `json:"spaceWords"`
}

// budgetBreakdown is the word accounting attached to a 413: the budget,
// the words already held (itemized), and the words the rejected request
// asked for.
type budgetBreakdown struct {
	Tenant         string        `json:"tenant"`
	BudgetWords    int64         `json:"budgetWords"`
	UsedWords      int64         `json:"usedWords"`
	RequestedWords int64         `json:"requestedWords"`
	Estimators     []budgetEntry `json:"estimators"`
}

// budgetError reports a mutation that would exceed a tenant's memory
// budget, carrying the full accounting for the 413 body.
type budgetError struct{ breakdown budgetBreakdown }

// Error summarizes the accounting in one line.
func (e *budgetError) Error() string {
	b := e.breakdown
	return fmt.Sprintf("tenant %q memory budget exceeded: %d words used + %d requested > %d budget",
		b.Tenant, b.UsedWords, b.RequestedWords, b.BudgetWords)
}

// writeBudgetError answers 413 with the accounting breakdown.
func writeBudgetError(w http.ResponseWriter, be *budgetError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusRequestEntityTooLarge)
	json.NewEncoder(w).Encode(map[string]any{
		"error":  be.Error(),
		"budget": be.breakdown,
	})
}

// tenantUsageLocked itemizes the tenant's local estimators and sums
// their SpaceWords, skipping shards this node holds but does not own (a
// move's copy). Caller holds s.mu (read or write).
func (s *Server) tenantUsageLocked(tenant string) (int64, []budgetEntry) {
	var used int64
	var entries []budgetEntry
	for key, est := range s.ests {
		t, _ := splitTenant(key)
		if t != tenant || s.notOwner(key) {
			continue
		}
		w := int64(est.spaceWords())
		used += w
		entries = append(entries, budgetEntry{Name: key, SpaceWords: w})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return used, entries
}

// checkBudgetLocked enforces the tenant's memory budget for a mutation
// that adds deltaWords to key's tenant (negative deltas - shrinking
// replacements - always pass). Caller holds s.mu. The returned error is
// a *budgetError carrying the exact word accounting.
func (s *Server) checkBudgetLocked(key string, deltaWords int64) error {
	tenant, _ := splitTenant(key)
	ts := s.tenants.get(tenant)
	if ts == nil || ts.cfg.MemoryBudgetWords <= 0 {
		return nil
	}
	budget := ts.cfg.MemoryBudgetWords
	used, entries := s.tenantUsageLocked(tenant)
	if used+deltaWords <= budget {
		return nil
	}
	return &budgetError{breakdown: budgetBreakdown{
		Tenant:         tenant,
		BudgetWords:    budget,
		UsedWords:      used,
		RequestedWords: deltaWords,
		Estimators:     entries,
	}}
}

// ---- tenant config handlers ----

// tenantInfoResponse is the GET /v1/tenants/{tenant} document: config
// plus live usage.
type tenantInfoResponse struct {
	Tenant     string        `json:"tenant"`
	Config     TenantConfig  `json:"config"`
	UsedWords  int64         `json:"usedWords"`
	Estimators []budgetEntry `json:"estimators"`
}

// setTenantLocal installs a tenant config locally, logging it first
// (binding-class change: exclusive gate).
func (s *Server) setTenantLocal(ctx context.Context, tenant string, cfg TenantConfig) error {
	s.gate.Lock()
	defer s.gate.Unlock()
	if err := s.persist.logTenant(ctx, walOpTenantPut, tenant, cfg); err != nil {
		return err
	}
	s.tenants.set(tenant, cfg)
	return nil
}

// deleteTenantLocal removes a tenant config locally (logged), reporting
// whether it existed.
func (s *Server) deleteTenantLocal(ctx context.Context, tenant string) (bool, error) {
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.tenants.get(tenant) == nil {
		return false, nil
	}
	if err := s.persist.logTenant(ctx, walOpTenantDelete, tenant, TenantConfig{}); err != nil {
		return true, err
	}
	s.tenants.delete(tenant)
	return true, nil
}

func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	tenant := r.PathValue("tenant")
	if err := validTenantName(tenant); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var cfg TenantConfig
	if !decodeJSON(w, r, &cfg) {
		return
	}
	if cfg.MemoryBudgetWords < 0 || cfg.RateQPS < 0 || cfg.RateBurst < 0 || cfg.MaxInflight < 0 {
		writeError(w, http.StatusBadRequest, "tenant limits must be non-negative")
		return
	}
	if s.cluster != nil && !isInternal(r) {
		// Tenant configs are cluster metadata: install everywhere so any
		// node can enforce admission and any router can enforce budgets.
		if err := s.cluster.broadcastTenant(r.Context(), http.MethodPut, tenant, &cfg); err != nil {
			writeError(w, http.StatusBadGateway, "tenant config fan-out incomplete (re-issue the PUT): %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "config": cfg})
		return
	}
	if err := s.setTenantLocal(r.Context(), tenant, cfg); err != nil {
		writeError(w, http.StatusInternalServerError, "logging tenant config: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "config": cfg})
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if err := validTenantName(tenant); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.cluster != nil && !isInternal(r) {
		s.cluster.routeTenantInfo(r.Context(), w, tenant)
		return
	}
	ts := s.tenants.get(tenant)
	// Internal usage probes must answer even on a node whose config copy
	// is missing (a broadcast raced): usage is about estimators, not
	// configs.
	if ts == nil && tenant != DefaultTenant && !isInternal(r) {
		writeError(w, http.StatusNotFound, "no tenant %q", tenant)
		return
	}
	var cfg TenantConfig
	if ts != nil {
		cfg = ts.cfg
	}
	s.mu.RLock()
	used, entries := s.tenantUsageLocked(tenant)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, tenantInfoResponse{
		Tenant: tenant, Config: cfg, UsedWords: used, Estimators: entries,
	})
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Tenant string       `json:"tenant"`
		Config TenantConfig `json:"config"`
	}
	names := s.tenants.names()
	out := make([]entry, 0, len(names))
	for _, t := range names {
		if ts := s.tenants.get(t); ts != nil {
			out = append(out, entry{Tenant: t, Config: ts.cfg})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	if s.replicaReadOnly() {
		writeError(w, http.StatusConflict, readOnlyReplicaMsg)
		return
	}
	tenant := r.PathValue("tenant")
	if err := validTenantName(tenant); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if tenant == DefaultTenant {
		writeError(w, http.StatusBadRequest, "the default tenant cannot be deleted; PUT an empty config to lift its limits")
		return
	}
	if s.cluster != nil && !isInternal(r) {
		// Configs are broadcast to every node, so the router's own registry
		// is authoritative for existence.
		if s.tenants.get(tenant) == nil {
			writeError(w, http.StatusNotFound, "no tenant %q", tenant)
			return
		}
		used, _, err := s.cluster.clusterTenantUsage(r.Context(), tenant)
		if err != nil {
			writeError(w, http.StatusBadGateway, "checking tenant usage: %v", err)
			return
		}
		if used > 0 {
			writeError(w, http.StatusConflict, "tenant %q still holds estimators (%d words); delete them first", tenant, used)
			return
		}
		if err := s.cluster.broadcastTenant(r.Context(), http.MethodDelete, tenant, nil); err != nil {
			writeError(w, http.StatusBadGateway, "tenant delete fan-out incomplete (re-issue the DELETE): %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": tenant})
		return
	}
	s.mu.RLock()
	used, _ := s.tenantUsageLocked(tenant)
	s.mu.RUnlock()
	if used > 0 && !isInternal(r) {
		writeError(w, http.StatusConflict, "tenant %q still holds estimators (%d words); delete them first", tenant, used)
		return
	}
	found, err := s.deleteTenantLocal(r.Context(), tenant)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "logging tenant delete: %v", err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, "no tenant %q", tenant)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": tenant})
}

// ---- tenant-scoped estimator routes ----

// handleTenantCreate creates an estimator inside a tenant namespace: the
// body's name is validated and qualified with the tenant prefix, then the
// request flows through the same create path as the flat route.
func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if err := validTenantName(tenant); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req createRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := validLocalName(req.Name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Name = qualifiedName(tenant, req.Name)
	s.serveCreate(w, r, &req)
}

// handleTenantEstimatorList lists one tenant's estimators, names
// un-prefixed, from the same entries GET /v1/estimators serves.
func (s *Server) handleTenantEstimatorList(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if err := validTenantName(tenant); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	list, err := s.listEstimators(r)
	if err != nil {
		writeError(w, http.StatusBadGateway, "cluster list incomplete: %v", err)
		return
	}
	out := make([]listEntry, 0)
	for _, e := range list {
		if t, local := splitTenant(e.Name); t == tenant {
			out = append(out, listEntry{Name: local, Kind: e.Kind})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "estimators": out})
}

// tenantEstimatorRoute adapts a tenant-scoped estimator URL onto the flat
// handlers: it validates the tenant and name, rewrites the path to the
// qualified registry key (escaped, so the mux sees one segment) and
// re-dispatches through the mux - every downstream handler then sees the
// qualified key in its {name} path value, exactly as if the client had
// addressed it directly.
func (s *Server) tenantEstimatorRoute(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("tenant")
		if err := validTenantName(tenant); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		name := r.PathValue("name")
		if err := validLocalName(name); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key := qualifiedName(tenant, name)
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/v1/estimators/" + key + suffix
		r2.URL.RawPath = "/v1/estimators/" + url.PathEscape(key) + suffix
		s.mux.ServeHTTP(w, r2)
	}
}

// requireKnownTenant rejects creates under unregistered tenants: budgets
// and rate limits only mean something when the namespace is declared
// first (the default tenant is exempt for backward compatibility).
func (s *Server) requireKnownTenant(key string) error {
	tenant, _ := splitTenant(key)
	if !s.tenants.known(tenant) {
		return fmt.Errorf("%w: %q", errUnknownTenant, tenant)
	}
	return nil
}

// errUnknownTenant reports a create under a tenant that was never
// registered via PUT /v1/tenants/{tenant}.
var errUnknownTenant = errors.New("unknown tenant (register it with PUT /v1/tenants/{tenant} first)")

// validateCreateKey applies the external-create key syntax: at most one
// tenant separator, no shard markers, non-empty parts.
func validateCreateKey(key string) error {
	if strings.Contains(key, "#") {
		return fmt.Errorf("estimator names must not contain %q (reserved for shard keys)", "#")
	}
	tenant, name := splitTenant(key)
	if err := validTenantName(tenant); err != nil {
		return err
	}
	return validLocalName(name)
}

// ---- tenant admission ----

// requestTenant extracts the tenant a request addresses from its URL:
// tenant-scoped routes name it directly, flat estimator routes resolve
// the (possibly escaped) key's prefix, everything else belongs to no
// tenant. Used for per-tenant admission and metrics labels.
func requestTenant(r *http.Request) string {
	p := r.URL.EscapedPath()
	if rest, ok := strings.CutPrefix(p, "/v1/tenants/"); ok {
		seg, _, _ := strings.Cut(rest, "/")
		if t, err := url.PathUnescape(seg); err == nil {
			return t
		}
		return seg
	}
	if rest, ok := strings.CutPrefix(p, "/v1/estimators/"); ok && rest != "" {
		seg, _, _ := strings.Cut(rest, "/")
		key, err := url.PathUnescape(seg)
		if err != nil {
			key = seg
		}
		if base, _, ok := cluster.SplitShardName(key); ok {
			key = base
		}
		t, _ := splitTenant(key)
		return t
	}
	return ""
}

// admitTenant runs the per-tenant admission gates (rate bucket, inflight
// cap) when the request's tenant (requestTenant) is configured. Internal
// fan-out sub-requests bypass them - the edge node already charged the
// external request - as do the global exemptions (/healthz, /metrics,
// /admin). It returns a release func and true to serve, or writes the 429
// itself and returns false.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request, tenant string) (release func(), ok bool) {
	if admitExempt(r) || tenant == "" {
		return func() {}, true
	}
	ts := s.tenants.get(tenant)
	if ts == nil {
		return func() {}, true
	}
	if ts.bucket != nil && !ts.bucket.take() {
		s.metrics.admissionRejected("tenant_rate", tenant)
		reject(w, retryAfterForRate(ts.cfg.RateQPS))
		return nil, false
	}
	if limit := ts.cfg.MaxInflight; limit > 0 {
		if ts.inflight.Add(1) > int64(limit) {
			ts.inflight.Add(-1)
			s.metrics.admissionRejected("tenant_inflight", tenant)
			reject(w, 1)
			return nil, false
		}
		return func() { ts.inflight.Add(-1) }, true
	}
	return func() {}, true
}
