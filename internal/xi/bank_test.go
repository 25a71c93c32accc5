package xi

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// testIDs returns a deterministic mix of small, large and boundary indices.
func testIDs() []uint64 {
	rng := rand.New(rand.NewSource(7))
	ids := []uint64{0, 1, 2, 1<<61 - 2, 1<<61 - 1, 1 << 60, Prime - 1, Prime}
	for i := 0; i < 200; i++ {
		ids = append(ids, rng.Uint64()>>3) // < 2^61
	}
	return ids
}

func testBank(t *testing.T, n int) (*Bank, []*Family) {
	t.Helper()
	b := NewBank(n)
	fams := make([]*Family, n)
	for j := 0; j < n; j++ {
		fams[j] = New(uint64(j)*0x9e37 + 11)
		b.Set(j, fams[j])
	}
	return b, fams
}

// TestBankHashMatchesFamily: the lazy-reduction batch kernel is
// bit-identical to the Horner reference on every index class.
func TestBankHashMatchesFamily(t *testing.T) {
	const n = 64
	b, fams := testBank(t, n)
	dst := make([]uint64, n)
	for _, id := range testIDs() {
		b.HashMany(id, 0, n, dst)
		for j := 0; j < n; j++ {
			want := fams[j].Hash(id)
			if dst[j] != want {
				t.Fatalf("HashMany(%d) family %d = %d, want %d", id, j, dst[j], want)
			}
			if got := b.Hash(j, id); got != want {
				t.Fatalf("Hash(%d, %d) = %d, want %d", j, id, got, want)
			}
		}
	}
}

// TestBankSumSignsMatchesFamily: SumSignsMany and the scalar kernel over a
// sub-range of families equal per-family SumSigns.
func TestBankSumSignsMatchesFamily(t *testing.T) {
	const n = 48
	b, _ := testBank(t, n)
	for _, rng := range [][2]int{{0, n}, {5, 17}, {n - 1, n}} {
		checkSumSigns(t, b, testIDs(), rng[0], rng[1])
	}
}

// edgeValues are field values where the limb split and the lazy
// reductions reach their bounds (Prime-1 = 2^61-2 is the largest); the
// fuzz seeds draw on the first five.
var edgeValues = []uint64{0, 1, Prime - 1, 1 << 60, Prime - 2, 2, 1<<31 - 1, 1 << 31, 1<<30 - 1, 1 << 30, 1<<60 - 1}

// checkSumSigns runs the dispatching SumSignsMany and the scalar kernel on
// families [lo, hi) of b over ids, into accumulators that start non-zero
// and sit between sentinels, and requires both to equal Family.SumSigns
// and to leave the sentinels alone.
func checkSumSigns(t *testing.T, b *Bank, ids []uint64, lo, hi int) {
	t.Helper()
	const sentinel = -0x5eed
	n := hi - lo
	got := make([]int64, n+2)
	ref := make([]int64, n+2)
	got[0], got[n+1], ref[0], ref[n+1] = sentinel, sentinel, sentinel, sentinel
	for j := 1; j <= n; j++ {
		got[j], ref[j] = int64(j*7), int64(j*7)
	}
	b.SumSignsMany(ids, lo, hi, got[1:n+1])
	b.sumSignsScalar(ids, lo, hi, ref[1:n+1])
	if got[0] != sentinel || got[n+1] != sentinel {
		t.Fatalf("SumSignsMany[%d:%d] wrote outside acc", lo, hi)
	}
	for j := lo; j < hi; j++ {
		want := int64((j-lo+1)*7) + b.Family(j).SumSigns(ids)
		if got[j-lo+1] != want || ref[j-lo+1] != want {
			t.Fatalf("family %d of [%d:%d], %d ids: SumSignsMany %d, scalar %d, Family.SumSigns %d",
				j, lo, hi, len(ids), got[j-lo+1], ref[j-lo+1], want)
		}
	}
}

// TestSumSignsKernelsAgree: on random banks of 1-40 families with
// edge-value coefficients, at every lo offset mod 4, over 1-70 ids (more
// than one vector chunk) mixing edge values and random ones, the
// dispatching kernel equals the scalar one and Family.SumSigns.
func TestSumSignsKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	field := func() uint64 {
		if rng.Intn(3) == 0 {
			return edgeValues[rng.Intn(len(edgeValues))]
		}
		return rng.Uint64() % Prime
	}
	for iter := 0; iter < 2000; iter++ {
		lo := rng.Intn(8)
		hi := lo + 1 + rng.Intn(40)
		b := NewBank(hi + rng.Intn(3))
		for j := 0; j < b.Len(); j++ {
			f, err := FromCoeffs(field(), field(), field(), field())
			if err != nil {
				t.Fatal(err)
			}
			b.Set(j, f)
		}
		ids := make([]uint64, 1+rng.Intn(70))
		for k := range ids {
			ids[k] = field()
		}
		checkSumSigns(t, b, ids, lo, hi)
	}
}

// FuzzBankSumSigns: coefficients, ids, lo (0-7) and the family count
// (1-64) drawn from the input; the dispatching kernel equals the scalar
// one and Family.SumSigns. words is read as little-endian 64-bit words,
// each reduced below Prime: the first 4*families are the coefficients,
// the rest the ids (at least one, word 0 when the input runs out).
func FuzzBankSumSigns(f *testing.F) {
	for n := uint8(1); n <= 9; n++ {
		var words []byte
		for k := 0; k < 4*int(n)+int(n)%5+1; k++ {
			words = binary.LittleEndian.AppendUint64(words, edgeValues[(k+int(n))%5])
		}
		f.Add(n%4, n, words)
	}
	f.Fuzz(func(t *testing.T, lo, n uint8, words []byte) {
		word := func(k int) uint64 {
			if 8*k+8 > len(words) {
				return 0
			}
			return binary.LittleEndian.Uint64(words[8*k:]) % Prime
		}
		l, fams := int(lo%8), max(1, int(n%65))
		b := NewBank(l + fams)
		for j := 0; j < fams; j++ {
			f, err := FromCoeffs(word(4*j), word(4*j+1), word(4*j+2), word(4*j+3))
			if err != nil {
				t.Fatal(err)
			}
			b.Set(l+j, f)
		}
		ids := []uint64{word(4 * fams)}
		for k := 4*fams + 1; 8*k+8 <= len(words); k++ {
			ids = append(ids, word(k))
		}
		checkSumSigns(t, b, ids, l, l+fams)
	})
}

// TestBankAccumulates: SumSignsMany adds into acc rather than overwriting,
// and a single id matches Sign.
func TestBankAccumulates(t *testing.T) {
	const n = 16
	b, fams := testBank(t, n)
	idsA := []uint64{1, 5, 9}
	idsB := []uint64{2, 5}
	acc := make([]int64, n)
	b.SumSignsMany(idsA, 0, n, acc)
	b.SumSignsMany(idsB, 0, n, acc)
	b.SumSignsMany([]uint64{3}, 0, n, acc)
	for j := 0; j < n; j++ {
		want := fams[j].SumSigns(idsA) + fams[j].SumSigns(idsB) + fams[j].Sign(3)
		if acc[j] != want {
			t.Fatalf("accumulated signs family %d = %d, want %d", j, acc[j], want)
		}
	}
}

// TestBankMarshalRoundTrip: seeds survive serialization.
func TestBankMarshalRoundTrip(t *testing.T) {
	const n = 10
	b, _ := testBank(t, n)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != BankSeedBytes(n) {
		t.Fatalf("marshal length %d, want %d", len(data), BankSeedBytes(n))
	}
	var c Bank
	if err := c.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if c.Len() != n {
		t.Fatalf("round-trip length %d, want %d", c.Len(), n)
	}
	dst1 := make([]uint64, n)
	dst2 := make([]uint64, n)
	for _, id := range []uint64{1, 17, 1 << 50} {
		b.HashMany(id, 0, n, dst1)
		c.HashMany(id, 0, n, dst2)
		for j := range dst1 {
			if dst1[j] != dst2[j] {
				t.Fatalf("round-tripped bank disagrees at family %d, id %d", j, id)
			}
		}
	}
	if err := c.UnmarshalBinary(data[:SeedBytes-1]); err == nil {
		t.Fatal("truncated bank data should fail")
	}
}

// BenchmarkXiFamilySumSigns is the pointer-chasing baseline: one Horner
// evaluation chain per (family, id).
func BenchmarkXiFamilySumSigns(b *testing.B) {
	const n = 512
	fams := make([]*Family, n)
	for j := range fams {
		fams[j] = New(uint64(j) + 1)
	}
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(i)*2654435761 + 1
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, f := range fams {
			sink += f.SumSigns(ids)
		}
	}
	_ = sink
}

// BenchmarkXiBankSumSigns is the batched id-major kernel over the same
// workload: 512 families x 40 ids per op.
func BenchmarkXiBankSumSigns(b *testing.B) { benchBankSumSigns(b, (*Bank).SumSignsMany) }

// BenchmarkXiBankSumSignsScalar is the same workload on the portable
// kernel, whatever kernel SumSignsMany selected.
func BenchmarkXiBankSumSignsScalar(b *testing.B) { benchBankSumSigns(b, (*Bank).sumSignsScalar) }

// benchBankSumSigns times kernel on 512 families x 40 ids per op.
func benchBankSumSigns(b *testing.B, kernel func(*Bank, []uint64, int, int, []int64)) {
	const n = 512
	bank := NewBank(n)
	for j := 0; j < n; j++ {
		bank.SetSeed(j, uint64(j)+1)
	}
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(i)*2654435761 + 1
	}
	acc := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(bank, ids, 0, n, acc)
	}
}
