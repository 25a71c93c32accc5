package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/xi"
)

// planeBytes bounds the memoized sign bits of one dimension of a plan.
const planeBytes = 64 << 10

// idChunk bounds the ids sumSigns partitions per pass. It is below 256, so
// the byte lanes of signPlane.fold cannot overflow.
const idChunk = 192

// signPlane memoizes, for every dyadic id in the top levels of one
// dimension's domain, the parity bits of that id under all Instances
// families of the dimension: bit j of row id is 1 iff xi_id of instance j
// is -1. Every update evaluates the same few thousand top-level ids (the
// root-to-leaf paths of point covers and the large nodes of interval
// covers) against every instance, so one row replaces Instances polynomial
// evaluations each time it is read.
//
// The plane holds as many whole levels as fit in planeBytes, and never
// more than the domain has: ids [1, limit), limit a power of two. Rows are
// filled on first use by whichever goroutine claims them first (an atomic
// claim bit per row) and are read without locks once their ready bit is
// set; a row another goroutine is still filling is evaluated instead. The
// row storage is allocated once, on the plane's first use, so filling
// allocates nothing.
type signPlane struct {
	bank  *xi.Bank
	lo    int    // bank slot of instance 0 of this dimension
	inst  int    // instances (families) per row
	words int    // uint64 words per row
	limit uint64 // ids below limit are memoized; 0 when none fit

	once         sync.Once
	bits         []uint64        // [id*words + w]; row 0 is unused
	claim, ready []atomic.Uint64 // one bit per id
}

// init sizes the plane of the families [lo, lo+inst) of bank over a
// domain with log size h.
func (pl *signPlane) init(bank *xi.Bank, lo, inst, h int) {
	pl.bank, pl.lo, pl.inst = bank, lo, inst
	pl.words = (inst + 63) / 64
	rows := uint64(planeBytes / (8 * pl.words))
	if rows < 2 {
		return
	}
	pl.limit = min(uint64(1)<<uint(bits.Len64(rows)-1), uint64(2)<<uint(h)) // whole levels only
}

func (pl *signPlane) alloc() {
	pl.bits = make([]uint64, int(pl.limit)*pl.words)
	n := (pl.limit + 63) / 64
	pl.claim = make([]atomic.Uint64, n)
	pl.ready = make([]atomic.Uint64, n)
}

// row returns the word offset of id's row, filling it first if no
// goroutine has claimed it yet. ok is false when the id is not memoized or
// its row is being filled by another goroutine.
func (pl *signPlane) row(id uint64) (off int, ok bool) {
	if id >= pl.limit {
		return 0, false
	}
	w, bit := id>>6, uint64(1)<<(id&63)
	if pl.ready[w].Load()&bit == 0 {
		if !pl.tryClaim(w, bit) {
			return 0, false
		}
		pl.fill(id)
		pl.ready[w].Or(bit)
	}
	return int(id) * pl.words, true
}

// tryClaim sets a row's claim bit, reporting whether this call set it. It
// loops on CompareAndSwap rather than reading the old value Or returns:
// Go 1.24.0's amd64 intrinsic for a value-returning Or clobbers a live
// register of its caller.
func (pl *signPlane) tryClaim(w, bit uint64) bool {
	for {
		old := pl.claim[w].Load()
		if old&bit != 0 {
			return false
		}
		if pl.claim[w].CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// fill evaluates id against every family of the plane into its row.
func (pl *signPlane) fill(id uint64) {
	var h [64]uint64
	row := pl.bits[int(id)*pl.words : int(id+1)*pl.words]
	for c := range row {
		lo := pl.lo + 64*c
		n := min(64, pl.inst-64*c)
		pl.bank.HashMany(id, lo, lo+n, h[:n])
		var w uint64
		for j, v := range h[:n] {
			w |= (v & 1) << uint(j)
		}
		row[c] = w
	}
}

// fold adds the signs of the rows at the given word offsets into acc:
// acc[j] += len(rows) - 2*(rows with bit j set). It counts 64 instances at
// a time in eight byte-lane accumulators (lane t, byte b counts bit 8b+t),
// so each row word costs eight shift-mask-adds rather than 64 bit tests.
// len(rows) must be below 256.
func (pl *signPlane) fold(rows []int, acc []int64) {
	const ones = 0x0101010101010101
	n := int64(len(rows))
	for c := 0; c < pl.words; c++ {
		var l0, l1, l2, l3, l4, l5, l6, l7 uint64
		for _, off := range rows {
			w := pl.bits[off+c]
			l0 += w & ones
			l1 += w >> 1 & ones
			l2 += w >> 2 & ones
			l3 += w >> 3 & ones
			l4 += w >> 4 & ones
			l5 += w >> 5 & ones
			l6 += w >> 6 & ones
			l7 += w >> 7 & ones
		}
		lanes := [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
		out := acc[64*c : min(64*c+64, len(acc))]
		for j := range out {
			out[j] += n - 2*int64(lanes[j&7]>>(8*uint(j>>3))&0xff)
		}
	}
}

// sumSigns folds the signs of ids into acc for every instance of one
// dimension: acc[inst] += sum over ids of xi_id of (inst, dim). Ids in the
// memoized top levels are read from the dimension's sign plane; the rest
// are evaluated by xi.Bank.SumSignsMany. The sums are exact integers, so
// the result is bit-identical to evaluating every id.
func (p *Plan) sumSigns(dim int, ids []uint64, acc []int64) {
	pl := &p.planes[dim]
	if pl.limit == 0 {
		p.bank.SumSignsMany(ids, pl.lo, pl.lo+pl.inst, acc)
		return
	}
	pl.once.Do(pl.alloc)
	var rows [idChunk]int
	var rest [idChunk]uint64
	for len(ids) > 0 {
		m := min(len(ids), idChunk)
		nr, nx := 0, 0
		for _, id := range ids[:m] {
			if off, ok := pl.row(id); ok {
				rows[nr] = off
				nr++
			} else {
				rest[nx] = id
				nx++
			}
		}
		if nr > 0 {
			pl.fold(rows[:nr], acc)
		}
		if nx > 0 {
			p.bank.SumSignsMany(rest[:nx], pl.lo, pl.lo+pl.inst, acc)
		}
		ids = ids[m:]
	}
}
