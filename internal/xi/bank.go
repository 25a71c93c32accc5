package xi

import (
	"fmt"
	"math/bits"
)

// Bank holds the polynomial coefficients of many families in four
// contiguous struct-of-arrays planes, one per coefficient degree. It is the
// batch-evaluation counterpart of Family: where Family answers "what is
// xi_i of this one family", Bank answers "what is xi_i of families
// [lo, hi)" with a single pass over contiguous memory.
//
// The batched kernels precompute i, i^2 mod p and i^3 mod p once per index
// and then evaluate every family with three *independent* modular
// multiplies (a1*i, a2*i^2, a3*i^3) instead of the dependent Horner chain -
// the multiplies of consecutive families pipeline, and the coefficient
// loads stream linearly. Intermediate values use a lazy reduction (results
// kept < 2^62, congruent mod p); the final reduction to the canonical
// representative happens once per evaluation, so the parity bit - and hence
// every sign - is bit-identical to Family.Hash/Family.Sign. SumSignsMany
// has a second, AVX2 kernel on amd64 (bank_amd64.go), chosen at package
// init when the CPU and OS support it.
type Bank struct {
	c0, c1, c2, c3 []uint64
}

// NewBank returns a bank with room for n families, all initialized to the
// zero polynomial.
func NewBank(n int) *Bank {
	return &Bank{
		c0: make([]uint64, n),
		c1: make([]uint64, n),
		c2: make([]uint64, n),
		c3: make([]uint64, n),
	}
}

// Len returns the number of families in the bank.
func (b *Bank) Len() int { return len(b.c0) }

// SetSeed derives family j deterministically from a 64-bit seed, exactly as
// New does.
func (b *Bank) SetSeed(j int, seed uint64) { b.Set(j, New(seed)) }

// Set copies the coefficients of f into family slot j.
func (b *Bank) Set(j int, f *Family) {
	b.c0[j], b.c1[j], b.c2[j], b.c3[j] = f.a[0], f.a[1], f.a[2], f.a[3]
}

// Family returns a standalone copy of family j.
func (b *Bank) Family(j int) *Family {
	return &Family{a: [4]uint64{b.c0[j], b.c1[j], b.c2[j], b.c3[j]}}
}

// lazyMul returns a value < 2^62 congruent to a*b mod Prime, for lazy
// operands a, b < 2^62 (2^64 = 8 mod p, then one extra fold).
func lazyMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	s := (lo & Prime) + (lo >> 61) + (hi << 3)
	return (s & Prime) + (s >> 61)
}

// mulNF is the single-fold multiply for operands a, b < 2^61: the result is
// < 2^62 + 8 and congruent to a*b mod Prime, so four such terms still sum
// without overflow before the final canon.
func mulNF(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return (lo & Prime) + (lo >> 61) + (hi << 3)
}

// canon reduces a lazy sum s (any uint64, congruent to the value mod p) to
// the canonical representative in [0, Prime).
func canon(s uint64) uint64 {
	s = (s & Prime) + (s >> 61)
	s = (s & Prime) + (s >> 61)
	if s >= Prime {
		s -= Prime
	}
	return s
}

// Hash evaluates family j at index i, identical to Family.Hash.
func (b *Bank) Hash(j int, i uint64) uint64 {
	i2 := lazyMul(i, i)
	i3 := lazyMul(i2, i)
	return canon(b.c0[j] + lazyMul(b.c1[j], i) + lazyMul(b.c2[j], i2) + lazyMul(b.c3[j], i3))
}

// HashMany evaluates families [lo, hi) at index i into dst, which must have
// length hi-lo. Results are canonical and identical to Family.Hash.
func (b *Bank) HashMany(i uint64, lo, hi int, dst []uint64) {
	i2 := lazyMul(i, i)
	i3 := lazyMul(i2, i)
	c0, c1, c2, c3 := b.c0[lo:hi], b.c1[lo:hi], b.c2[lo:hi], b.c3[lo:hi]
	_ = dst[len(c0)-1]
	for j := range c0 {
		dst[j] = canon(c0[j] + lazyMul(c1[j], i) + lazyMul(c2[j], i2) + lazyMul(c3[j], i3))
	}
}

// powerChunk bounds the per-call stack scratch of sumSignsScalar. Cover
// lists are at most 2*MaxLog + a few ids, comfortably below it; longer
// lists are processed in chunks.
const powerChunk = 192

// SumSignsMany folds the signs of all ids into acc: acc[j-lo] +=
// sum over ids of xi_id of family j, for j in [lo, hi). acc must have
// length hi-lo; it is accumulated into, not overwritten, so interval and
// endpoint covers can share a plane. Every id must be < Prime. On amd64
// CPUs with AVX2 (useAVX2, fixed at package init) the AVX2 kernel
// evaluates four families per instruction; elsewhere sumSignsScalar does.
// Both are exact integer arithmetic, so every sign equals Family.Sign.
// The calls are direct, so ids and acc may live on the caller's stack.
func (b *Bank) SumSignsMany(ids []uint64, lo, hi int, acc []int64) {
	if useAVX2 {
		b.sumSignsAVX2(ids, lo, hi, acc)
		return
	}
	b.sumSignsScalar(ids, lo, hi, acc)
}

// sumSignsScalar is the portable kernel and the reference the vector
// kernel is tested against. The powers i, i^2, i^3 of every id are
// computed once for the whole call (instead of once per family, as the
// per-Family path does), and each family then streams through the id list
// with its four coefficients pinned in registers: per evaluation, three
// loads and three independent multiplies.
func (b *Bank) sumSignsScalar(ids []uint64, lo, hi int, acc []int64) {
	var p2, p3 [powerChunk]uint64
	for len(ids) > 0 {
		m := len(ids)
		if m > powerChunk {
			m = powerChunk
		}
		chunk := ids[:m]
		for k, id := range chunk {
			// Powers are fully reduced so the per-family multiplies can use
			// the cheaper single-fold mulNF (operands < 2^61).
			i2 := canon(lazyMul(id, id))
			p2[k] = i2
			p3[k] = canon(lazyMul(i2, id))
		}
		c0, c1, c2, c3 := b.c0[lo:hi], b.c1[lo:hi], b.c2[lo:hi], b.c3[lo:hi]
		_ = acc[len(c0)-1]
		j := 0
		// Two families per pass: the id and power loads are shared, and the
		// six multiplies per index are mutually independent.
		for ; j+1 < len(c0); j += 2 {
			a0, a1, a2, a3 := c0[j], c1[j], c2[j], c3[j]
			b0, b1, b2, b3 := c0[j+1], c1[j+1], c2[j+1], c3[j+1]
			var parA, parB uint64
			for k, id := range chunk {
				i2, i3 := p2[k], p3[k]
				parA += canon(a0+mulNF(a1, id)+mulNF(a2, i2)+mulNF(a3, i3)) & 1
				parB += canon(b0+mulNF(b1, id)+mulNF(b2, i2)+mulNF(b3, i3)) & 1
			}
			acc[j] += int64(m) - 2*int64(parA)
			acc[j+1] += int64(m) - 2*int64(parB)
		}
		if j < len(c0) {
			a0, a1, a2, a3 := c0[j], c1[j], c2[j], c3[j]
			var par uint64
			for k, id := range chunk {
				par += canon(a0+mulNF(a1, id)+mulNF(a2, p2[k])+mulNF(a3, p3[k])) & 1
			}
			acc[j] += int64(m) - 2*int64(par)
		}
		ids = ids[m:]
	}
}

// BankSeedBytes returns the serialized size of a bank of n families.
func BankSeedBytes(n int) int { return n * SeedBytes }

// MarshalBinary encodes all family seeds, SeedBytes each, in slot order.
func (b *Bank) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, b.Len()*SeedBytes)
	for j := 0; j < b.Len(); j++ {
		fb, err := b.Family(j).MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = append(buf, fb...)
	}
	return buf, nil
}

// UnmarshalBinary decodes a bank produced by MarshalBinary.
func (b *Bank) UnmarshalBinary(data []byte) error {
	if len(data)%SeedBytes != 0 {
		return fmt.Errorf("xi: bank data length %d not a multiple of %d", len(data), SeedBytes)
	}
	n := len(data) / SeedBytes
	nb := NewBank(n)
	var f Family
	for j := 0; j < n; j++ {
		if err := f.UnmarshalBinary(data[j*SeedBytes : (j+1)*SeedBytes]); err != nil {
			return err
		}
		nb.Set(j, &f)
	}
	*b = *nb
	return nil
}
