// Package xi generates families of four-wise independent {-1, +1} random
// variables from small seeds, the randomization substrate of AMS-style
// sketches (paper Section 2.2, after Alon, Matias and Szegedy).
//
// A family {xi_i} is realized by a uniformly random polynomial of degree
// three over the prime field GF(p), p = 2^61 - 1 (the Carter-Wegman
// construction): g(i) = a3*i^3 + a2*i^2 + a1*i + a0 mod p is four-wise
// independent and uniform on [0, p), and xi_i = 1 - 2*(g(i) mod 2). Because
// p is odd, the parity map carries a bias of 2^-61 per variable - many
// orders of magnitude below every other error term in the system, and the
// construction used by published AGMS sketch implementations.
//
// The seed is the four coefficients (32 bytes), satisfying the paper's
// O(log |dom|)-bit seed requirement; variables are generated on the fly in
// O(1) word operations. The package is the pure polynomial kernel: Family
// is the scalar reference and Bank the batched evaluator, with an AVX2
// kernel on amd64 CPUs that have it; any memoization of signs lives with
// its caller (internal/core's sign planes).
package xi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Prime is the Mersenne prime 2^61 - 1 underlying the hash field. Family
// indices must be smaller than Prime (they always are: indices are dyadic
// interval ids, at most 2*2^61).
const Prime uint64 = 1<<61 - 1

// SeedBytes is the size of a serialized family seed.
const SeedBytes = 32

// Family is one family of four-wise independent {-1, +1} random variables,
// defined by the four coefficients of its hash polynomial.
type Family struct {
	a [4]uint64 // polynomial coefficients, each in [0, Prime)
}

// New derives a family deterministically from a 64-bit seed using a
// SplitMix64 expansion with rejection sampling into [0, Prime).
func New(seed uint64) *Family {
	var f Family
	s := seed
	for k := 0; k < 4; k++ {
		for {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			z &= Prime // 61 low bits; values in [0, 2^61-1] = [0, Prime]
			if z < Prime {
				f.a[k] = z
				break
			}
		}
	}
	return &f
}

// FromCoeffs constructs a family from explicit polynomial coefficients.
// Every coefficient must be in [0, Prime).
func FromCoeffs(a0, a1, a2, a3 uint64) (*Family, error) {
	for i, a := range [...]uint64{a0, a1, a2, a3} {
		if a >= Prime {
			return nil, fmt.Errorf("xi: coefficient %d out of range: %d >= %d", i, a, Prime)
		}
	}
	return &Family{a: [4]uint64{a0, a1, a2, a3}}, nil
}

// Coeffs returns the polynomial coefficients (the seed) of the family.
func (f *Family) Coeffs() [4]uint64 { return f.a }

// MarshalBinary encodes the family seed as SeedBytes little-endian bytes.
func (f *Family) MarshalBinary() ([]byte, error) {
	buf := make([]byte, SeedBytes)
	for i, a := range f.a {
		binary.LittleEndian.PutUint64(buf[8*i:], a)
	}
	return buf, nil
}

// UnmarshalBinary decodes a family seed produced by MarshalBinary.
func (f *Family) UnmarshalBinary(data []byte) error {
	if len(data) != SeedBytes {
		return fmt.Errorf("xi: bad seed length %d, want %d", len(data), SeedBytes)
	}
	var a [4]uint64
	for i := range a {
		a[i] = binary.LittleEndian.Uint64(data[8*i:])
		if a[i] >= Prime {
			return fmt.Errorf("xi: coefficient %d out of range", i)
		}
	}
	f.a = a
	return nil
}

// mulMod returns a*b mod Prime for a, b < Prime, using the Mersenne fold.
func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = (hi*8 + lo>>61)*2^61 + (lo & Prime).
	s := (lo & Prime) + (lo >> 61) + (hi << 3)
	s = (s & Prime) + (s >> 61)
	if s >= Prime {
		s -= Prime
	}
	return s
}

// addMod returns a+b mod Prime for a, b < Prime.
func addMod(a, b uint64) uint64 {
	s := a + b
	if s >= Prime {
		s -= Prime
	}
	return s
}

// Hash evaluates the degree-3 polynomial at i mod Prime. The result is
// four-wise independent and uniform on [0, Prime) over the choice of
// coefficients. i must be < Prime.
func (f *Family) Hash(i uint64) uint64 {
	// Horner: ((a3*i + a2)*i + a1)*i + a0.
	h := f.a[3]
	h = addMod(mulMod(h, i), f.a[2])
	h = addMod(mulMod(h, i), f.a[1])
	h = addMod(mulMod(h, i), f.a[0])
	return h
}

// Sign returns xi_i in {-1, +1}.
func (f *Family) Sign(i uint64) int64 {
	return 1 - 2*int64(f.Hash(i)&1)
}

// SumSigns returns the sum of xi_i over the given indices (the xi-bar
// aggregation of Equation 3 in the paper).
func (f *Family) SumSigns(ids []uint64) int64 {
	var s int64
	for _, id := range ids {
		s += 1 - 2*int64(f.Hash(id)&1)
	}
	return s
}
