package core

import "sync"

// EstScratch is the reusable scratch of the update and estimate kernels:
// one object's cover buffer and letter-sum planes (every update, and the
// query side of range estimates), the per-instance Z values and the boost
// median working copy. Scratches are pooled on the Plan (sizes are fixed
// by the plan's configuration), so a sketch holds only its counters, a
// warm update allocates nothing, and steady-state estimation allocates
// nothing beyond the GroupMeans diagnostic slice of the returned
// Estimate.
//
// A scratch must only be used with sketches of the plan it was taken from,
// and must not be used concurrently; take one per goroutine.
type EstScratch struct {
	cb   *coverBuf  // one object's id lists
	sums letterSums // its letter planes
	zs   []float64  // per-instance Z values
	med  []float64  // boost median working copy

	// Flattened common-endpoint pairing expansion (estimateCE): per term the
	// X- and Y-side counter offsets and the signed coefficient.
	ceWX, ceWY []int32
	ceCoeff    []float64
}

// maxIdleScratch bounds the scratches a plan keeps for reuse.
const maxIdleScratch = 16

// scratchPool is a plan's free list of scratches. It is not a sync.Pool:
// that drops its items at every other GC (and one Put in four under the
// race detector), and a warm update must allocate nothing.
type scratchPool struct {
	mu   sync.Mutex
	idle []*EstScratch
}

// GetScratch takes a scratch from the plan's pool, allocating a fresh
// (empty) one when the pool is dry. Components are sized lazily on first
// use, so a scratch only pays for the kernels that touch it.
func (p *Plan) GetScratch() *EstScratch {
	sp := &p.scratch
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if n := len(sp.idle); n > 0 {
		sc := sp.idle[n-1]
		sp.idle = sp.idle[:n-1]
		return sc
	}
	return &EstScratch{}
}

// PutScratch returns a scratch to the plan's pool. The caller must not use
// sc afterwards.
func (p *Plan) PutScratch(sc *EstScratch) {
	sp := &p.scratch
	sp.mu.Lock()
	if len(sp.idle) < maxIdleScratch {
		sp.idle = append(sp.idle, sc)
	}
	sp.mu.Unlock()
}

// letterBufs returns the cover buffer and the letter-sum planes, shaped
// for the given letters per dimension.
func (sc *EstScratch) letterBufs(p *Plan, letters int) (*coverBuf, *letterSums) {
	if sc.cb == nil {
		sc.cb = newCoverBuf(p.cfg.Dims)
	}
	sc.sums.size(p.cfg.Dims, letters, p.cfg.Instances)
	return sc.cb, &sc.sums
}

// instSums returns the per-instance Z accumulator, sized to the plan.
func (sc *EstScratch) instSums(p *Plan) []float64 {
	if sc.zs == nil {
		sc.zs = make([]float64, p.cfg.Instances)
	}
	return sc.zs
}

// medianBuf returns the boost median working copy, sized to the plan.
func (sc *EstScratch) medianBuf(p *Plan) []float64 {
	if sc.med == nil {
		sc.med = make([]float64, p.cfg.Groups)
	}
	return sc.med
}

// ceTerms returns the flattened pairing-expansion arrays with room for n
// terms.
func (sc *EstScratch) ceTerms(n int) (wx, wy []int32, coeff []float64) {
	if cap(sc.ceWX) < n {
		sc.ceWX = make([]int32, n)
		sc.ceWY = make([]int32, n)
		sc.ceCoeff = make([]float64, n)
	}
	return sc.ceWX[:n], sc.ceWY[:n], sc.ceCoeff[:n]
}
