package spatial

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/geo"
)

// Concurrency layer shared by every public estimator.
//
// Estimator state is split into ingestShards() independent shards, each a
// full sketch set built from the SAME plan and guarded by its own RWMutex.
// Point updates lock one shard, picked round-robin, so concurrent writers
// on different shards never contend; sketches are linear projections, so
// the sum of the shards is bit-identical to a single sequentially-loaded
// sketch regardless of which shard each update landed in.
//
// Readers (estimates, counts, snapshots) serve from an epoch-cached merged
// view: every shard carries an atomic write-version bumped under its write
// lock, and the estimator publishes an immutable merged sketch set through
// an atomic.Pointer, tagged with the shard-version vector it was folded
// from. A read whose version check passes is an O(1) pointer load - no
// locks, no counter copy; a stale read rebuilds the view single-flight
// (one builder folds, concurrent readers wait and reuse the result, so
// readers never stampede the fold and writers never block on readers
// beyond one per-shard counter copy). With a single shard (GOMAXPROCS 1)
// the cache is skipped entirely and the reader borrows the shard state
// under its read lock - zero copies, same as before.
//
// Consistency is unchanged from the fold-per-read design: an update
// completes only after bumping its shard version inside the write lock, so
// a view that passes the version check reflects every update that
// completed before the read began, and every view is a state the estimator
// could have reached sequentially - never a torn shard. Views are
// immutable once published: view callbacks must treat the state as
// read-only, which also lets deterministic estimates be memoized per view
// (see viewMemo).

// maxIngestShards caps per-estimator shard fan-out: shards multiply the
// counter memory, and past a handful of concurrent writers the round-robin
// spread already keeps lock contention negligible.
const maxIngestShards = 8

// ingestShardsOverride pins the shard count of estimators built while it is
// non-zero. Test/benchmark hook (see export_test.go).
var ingestShardsOverride int

// viewCacheOff forces the legacy fold-per-read path, bypassing the epoch
// view cache. Test hook for cache/fold equivalence (see export_test.go).
var viewCacheOff bool

// viewCacheHits / viewCacheMisses count, process-wide across every
// estimator, reads served from an adopted epoch-cached view versus reads
// that had to rebuild the merged view. Single-shard estimators borrow
// state under a read lock and touch neither counter.
var viewCacheHits, viewCacheMisses atomic.Uint64

// ViewCacheStats returns the process-wide epoch view-cache hit and miss
// totals since start. A hit is a multi-shard read served from an adopted
// cached view; a miss is a read that rebuilt (folded) the merged view.
// Exposed for observability endpoints; both counters are monotone.
func ViewCacheStats() (hits, misses uint64) {
	return viewCacheHits.Load(), viewCacheMisses.Load()
}

// viewRebuildObserver, when set, is called after every view-cache
// rebuild (a miss that folded the shards) with the fold's start time and
// duration. See SetViewRebuildObserver.
var viewRebuildObserver atomic.Pointer[func(start time.Time, d time.Duration)]

// SetViewRebuildObserver registers fn to observe every epoch view-cache
// rebuild, process-wide: fn receives the fold's wall-clock start and
// duration after the rebuilt view is published. Servers use it to turn
// rebuild cost into trace spans. fn must be fast and must not call back
// into the estimator; nil unregisters. Safe for concurrent use with
// reads, though typically set once at startup.
func SetViewRebuildObserver(fn func(start time.Time, d time.Duration)) {
	if fn == nil {
		viewRebuildObserver.Store(nil)
		return
	}
	viewRebuildObserver.Store(&fn)
}

// ingestShards picks the shard count for a new estimator.
func ingestShards() int {
	n := ingestShardsOverride
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxIngestShards {
		n = maxIngestShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// shardedState holds the sharded sketch state of one estimator. T is the
// estimator's per-shard sketch bundle (e.g. the left and right sketches of
// a join estimator).
type shardedState[T any] struct {
	rr     atomic.Uint32
	shards []lockedShard[T]

	// Epoch view cache (multi-shard estimators only).
	cache    atomic.Pointer[cachedView[T]]
	buildMu  sync.Mutex    // single-flight view rebuild
	buildSeq atomic.Uint64 // bumped when a rebuild STARTS folding
}

type lockedShard[T any] struct {
	mu      sync.RWMutex
	version atomic.Uint64 // write-epoch, bumped under mu before unlock
	state   T
	_       [16]byte // keep neighbouring shard locks off one cache line
}

// cachedView is one published immutable merged view: the folded state, the
// shard-version vector it was built from, and per-view memo slots for
// deterministic estimates computed against it.
type cachedView[T any] struct {
	state    T
	versions [maxIngestShards]uint64
	foldSeq  uint64 // buildSeq value when this view's fold began
	memos    [memoSlots]atomic.Pointer[viewMemo]
}

// Memo slots: one per deterministic read-path result an estimator caches on
// a view. Parameterless results (join cardinalities, self-joins) key on
// nil; the range slot is a single-entry memo keyed by the query rectangle.
const (
	memoCardinality = iota // strict join / point-in-box estimate + counts
	memoExtended           // Definition 4 extended join + counts
	memoSelfJoinLeft
	memoSelfJoinRight
	memoRange // range estimate + count, keyed by query
	memoSlots
)

// viewMemo is one memoized estimate: the (owned) query key, the estimate
// and up to two counts read from the same view.
type viewMemo struct {
	key    geo.HyperRect // nil for parameterless slots
	est    Estimate
	c1, c2 int64
}

// viewRef is the per-call handle to one consistent estimator view. For
// multi-shard estimators state points at the shared epoch-cached merged
// sketch set and cv at its memo table; for single-shard estimators (and
// with the cache disabled) state is owned or borrowed and cv is nil.
type viewRef[T any] struct {
	state T
	cv    *cachedView[T]
}

// memoized returns the slot's cached result when its key matches, running
// compute and publishing the result otherwise. compute must be
// deterministic against the view (sketch states are immutable once
// published, so it is). The stored Estimate - GroupMeans slice included -
// is shared by every caller that hits the memo; Estimate documents the
// resulting read-only contract.
func (v viewRef[T]) memoized(slot int, key geo.HyperRect, compute func() (Estimate, int64, int64, error)) (Estimate, int64, int64, error) {
	if v.cv == nil {
		return compute()
	}
	if m := v.cv.memos[slot].Load(); m != nil && rectsEqual(m.key, key) {
		return m.est, m.c1, m.c2, nil
	}
	est, c1, c2, err := compute()
	if err == nil {
		m := &viewMemo{est: est, c1: c1, c2: c2}
		if key != nil {
			m.key = append(geo.HyperRect(nil), key...) // callers may reuse their slice
		}
		v.cv.memos[slot].Store(m)
	}
	return est, c1, c2, err
}

func rectsEqual(a, b geo.HyperRect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newShardedState builds n shards via mk.
func newShardedState[T any](n int, mk func() T) *shardedState[T] {
	ss := &shardedState[T]{shards: make([]lockedShard[T], n)}
	for i := range ss.shards {
		ss.shards[i].state = mk()
	}
	return ss
}

// ingest runs fn on one shard under its write lock. Shards are picked
// round-robin so concurrent writers spread out. The shard's write-version
// is bumped before the lock is released, so the update is visible to the
// view cache's staleness check as soon as it completes.
func (ss *shardedState[T]) ingest(fn func(T) error) error {
	sh := &ss.shards[int(ss.rr.Add(1)%uint32(len(ss.shards)))]
	sh.mu.Lock()
	defer func() {
		sh.version.Add(1)
		sh.mu.Unlock()
	}()
	return fn(sh.state)
}

// ingestFirst runs fn on shard 0 under its write lock - the designated
// merge target, so merged-in state is never spread thinner than it was.
func (ss *shardedState[T]) ingestFirst(fn func(T) error) error {
	sh := &ss.shards[0]
	sh.mu.Lock()
	defer func() {
		sh.version.Add(1)
		sh.mu.Unlock()
	}()
	return fn(sh.state)
}

// fold runs fn on every shard in order, each under its read lock. fn must
// only read the shard state (typically merging its counters into an owned
// accumulator).
func (ss *shardedState[T]) fold(fn func(T) error) error {
	for i := range ss.shards {
		sh := &ss.shards[i]
		sh.mu.RLock()
		err := fn(sh.state)
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// view hands a consistent view of the estimator to fn. With one shard the
// state is borrowed under the read lock (no copy, no cache); otherwise fn
// runs lock-free against the current epoch-cached merged view, rebuilt
// single-flight when stale. fn must not retain the state or mutate it -
// multi-shard views are shared by concurrent readers.
func (ss *shardedState[T]) view(mk func() T, merge func(dst, src T) error, fn func(viewRef[T]) error) error {
	if len(ss.shards) == 1 {
		sh := &ss.shards[0]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return fn(viewRef[T]{state: sh.state})
	}
	if viewCacheOff {
		acc, err := ss.snapshot(mk, merge)
		if err != nil {
			return err
		}
		return fn(viewRef[T]{state: acc})
	}
	cv, err := ss.currentView(mk, merge)
	if err != nil {
		return err
	}
	return fn(viewRef[T]{state: cv.state, cv: cv})
}

// version returns the sum of the shard write-versions. Every write bumps
// exactly one shard's counter by one, and counters never fall, so the
// sum names one point in the estimator's write history: two reads that
// return the same sum saw no write in between.
func (ss *shardedState[T]) version() uint64 {
	var v uint64
	for i := range ss.shards {
		v += ss.shards[i].version.Load()
	}
	return v
}

// fresh reports whether no shard has been written since v was built.
func (ss *shardedState[T]) fresh(v *cachedView[T]) bool {
	for i := range ss.shards {
		if ss.shards[i].version.Load() != v.versions[i] {
			return false
		}
	}
	return true
}

// currentView returns a published view that reflects every update completed
// before the call, rebuilding single-flight when the cache is stale.
func (ss *shardedState[T]) currentView(mk func() T, merge func(dst, src T) error) (*cachedView[T], error) {
	if v := ss.cache.Load(); v != nil && ss.fresh(v) {
		viewCacheHits.Add(1)
		return v, nil
	}
	arrive := ss.buildSeq.Load()
	ss.buildMu.Lock()
	defer ss.buildMu.Unlock()
	if v := ss.cache.Load(); v != nil && (ss.fresh(v) || v.foldSeq > arrive) {
		// Either nothing changed since v was folded, or another reader
		// STARTED folding v after this one arrived (foldSeq is bumped
		// before the fold's first shard read) - so every per-shard read of
		// v happened after this call began and v reflects every update
		// this reader must see. Adopting such a view even when newer
		// writes have already made it stale again keeps a fast writer from
		// forcing waiting readers to rebuild in lock-step. Publication
		// order alone would NOT be enough: a view published after this
		// reader arrived can still have read its first shards before an
		// update that completed just before this call.
		viewCacheHits.Add(1)
		return v, nil
	}
	viewCacheMisses.Add(1)
	foldStart := time.Now()
	v := &cachedView[T]{state: mk(), foldSeq: ss.buildSeq.Add(1)}
	for i := range ss.shards {
		sh := &ss.shards[i]
		sh.mu.RLock()
		v.versions[i] = sh.version.Load()
		err := merge(v.state, sh.state)
		sh.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	ss.cache.Store(v)
	if fn := viewRebuildObserver.Load(); fn != nil {
		(*fn)(foldStart, time.Since(foldStart))
	}
	return v, nil
}

// snapshot returns an owned merged copy of the estimator state, safe to
// use after every lock is released and never shared with the view cache.
// Merging two estimators copies the source this way first, so concurrent
// a.Merge(b) and b.Merge(a) cannot deadlock: no goroutine ever holds locks
// of both estimators at once.
func (ss *shardedState[T]) snapshot(mk func() T, merge func(dst, src T) error) (T, error) {
	acc := mk()
	err := ss.fold(func(s T) error { return merge(acc, s) })
	return acc, err
}
