package xi

// The AVX2 kernel of SumSignsMany. It evaluates four families per ymm
// register with 32x32->64-bit multiplies (VPMULUDQ): every coefficient
// and power x < 2^61 is split into a 31-bit low and a 30-bit high limb,
// x = xh*2^31 + xl, so a*x = ah*xh*2^62 + (ah*xl + al*xh)*2^31 + al*xl.
// Summed over the three terms a1*i, a2*i^2, a3*i^3 the low*low, cross and
// high*high parts stay below 3*2^62, 3*2^62 and 3*2^60, so they add up in
// 64-bit lanes without overflow, and since 2^61 = 1 (mod p):
//
//	2^62 = 2,  LL = (LL>>61) + (LL mod 2^61),
//	M*2^31 = (M>>30) + ((M mod 2^30)<<31)   (mod p).
//
// Those pieces plus a0 sum below 2^64; one Mersenne fold leaves s < 2^61+8
// with s = g(i) (mod p), and the canonical value's parity is
// (s ^ ((s+1)>>61)) & 1, because s >= p exactly when (s+1)>>61 is 1 and
// s-p has the opposite parity. The arithmetic is exact, so every sign
// equals Family.Sign.

// vecChunk bounds the ids one assembly call takes, which keeps the limb
// scratch of sumSignsAVX2 (six words per id) small on the stack.
const vecChunk = 16

// limbMask keeps the low 31-bit limb of a value below 2^61.
const limbMask = 1<<31 - 1

// Bits of CPUID leaf 1 ECX, leaf 7 EBX and XCR0 read by avx2Usable.
const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX: the OS enabled XSAVE/XGETBV
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	xcr0SSEAVX   = 1<<1 | 1<<2
)

// useAVX2 selects SumSignsMany's AVX2 kernel, once, from what this CPU and
// OS support.
var useAVX2 = detectAVX2()

// detectAVX2 reads CPUID and, when the OS enabled XGETBV, XCR0.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return avx2Usable(ecx1, ebx7, xcr0)
}

// avx2Usable reports whether the CPU implements AVX and AVX2 and the OS
// saves the SSE and AVX (YMM) register state across context switches.
func avx2Usable(ecx1, ebx7, xcr0 uint32) bool {
	return ecx1&(cpuidOSXSAVE|cpuidAVX) == cpuidOSXSAVE|cpuidAVX &&
		ebx7&cpuidAVX2 != 0 &&
		xcr0&xcr0SSEAVX == xcr0SSEAVX
}

// sumSignsAVX2 is SumSignsMany on the AVX2 kernel. The assembly takes
// whole groups of four families from any lo; the last hi-lo mod 4
// families go through sumSignsScalar.
func (b *Bank) sumSignsAVX2(ids []uint64, lo, hi int, acc []int64) {
	n4 := (hi - lo) &^ 3
	if n4 > 0 && len(ids) > 0 {
		c0, c1, c2, c3 := b.c0[lo:hi], b.c1[lo:hi], b.c2[lo:hi], b.c3[lo:hi]
		_ = acc[n4-1]
		var limbs [6 * vecChunk]uint64
		for rest := ids; len(rest) > 0; {
			m := min(len(rest), vecChunk)
			for k, id := range rest[:m] {
				i := canon(id)
				i2 := canon(lazyMul(i, i))
				i3 := canon(lazyMul(i2, i))
				l := limbs[6*k : 6*k+6 : 6*k+6]
				l[0], l[1] = i&limbMask, i>>31
				l[2], l[3] = i2&limbMask, i2>>31
				l[4], l[5] = i3&limbMask, i3>>31
			}
			signGroupsAVX2(&c0[0], &c1[0], &c2[0], &c3[0], n4, &limbs[0], m, &acc[0])
			rest = rest[m:]
		}
	}
	if lo+n4 < hi {
		b.sumSignsScalar(ids, lo+n4, hi, acc[n4:])
	}
}

// signGroupsAVX2 adds m - 2*(number of odd g_j(i)) to acc[j] for the n
// families j of the coefficient planes c0..c3 (n a positive multiple of
// 4), over the m >= 1 ids whose power limbs pw holds: six words per id,
// the low and high limbs of i, i^2 and i^3 mod p. Implemented in
// bank_amd64.s.
//
//go:noescape
func signGroupsAVX2(c0, c1, c2, c3 *uint64, n int, pw *uint64, m int, acc *int64)

// cpuid executes CPUID with the given EAX and ECX. Implemented in
// bank_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0. Only valid when CPUID reports OSXSAVE. Implemented
// in bank_amd64.s.
func xgetbv() (eax, edx uint32)
