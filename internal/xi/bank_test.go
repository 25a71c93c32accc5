package xi

import (
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

// TestBankSumSignsMatchesFamily: SumSignsMany over a sub-range of families
// equals per-family SumSigns.
func TestBankSumSignsMatchesFamily(t *testing.T) {
	const n = 48
	b, fams := testBank(t, n)
	ids := testIDs()
	for _, rng := range [][2]int{{0, n}, {5, 17}, {n - 1, n}} {
		lo, hi := rng[0], rng[1]
		acc := make([]int64, hi-lo)
		b.SumSignsMany(ids, lo, hi, acc)
		for j := lo; j < hi; j++ {
			if want := fams[j].SumSigns(ids); acc[j-lo] != want {
				t.Fatalf("SumSignsMany[%d:%d] family %d = %d, want %d", lo, hi, j, acc[j-lo], want)
			}
		}
	}
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
func BenchmarkXiBankSumSigns(b *testing.B) {
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
		bank.SumSignsMany(ids, 0, n, acc)
	}
}
