package xi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSignIsPlusMinusOne(t *testing.T) {
	f := New(1)
	for i := uint64(0); i < 4096; i++ {
		s := f.Sign(i)
		if s != 1 && s != -1 {
			t.Fatalf("Sign(%d) = %d", i, s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := uint64(0); i < 1000; i++ {
		if a.Sign(i) != b.Sign(i) {
			t.Fatalf("same seed disagrees at %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if a.Sign(i) == c.Sign(i) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced identical families")
	}
}

func TestFromCoeffsValidation(t *testing.T) {
	if _, err := FromCoeffs(0, 1, 2, Prime); err == nil {
		t.Fatal("coefficient = Prime should be rejected")
	}
	f, err := FromCoeffs(1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Coeffs(); got != [4]uint64{1, 2, 3, 4} {
		t.Fatalf("Coeffs = %v", got)
	}
}

// TestHashPolynomial verifies Hash against a big-integer-free reference for
// small coefficients where no reduction happens.
func TestHashPolynomial(t *testing.T) {
	f, _ := FromCoeffs(7, 3, 2, 1)
	for i := uint64(0); i < 100; i++ {
		want := (i*i*i + 2*i*i + 3*i + 7) % Prime
		if got := f.Hash(i); got != want {
			t.Fatalf("Hash(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestMulModAgainstBigReference validates the Mersenne folding against
// 128-bit reference arithmetic.
func TestMulModAgainstBigReference(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{Prime - 1, Prime - 1},
		{Prime - 1, 2},
		{1 << 60, 1 << 60},
		{123456789123456789 % Prime, 987654321987654321 % Prime},
		{0, Prime - 1},
		{1, 1},
	}
	for _, c := range cases {
		want := mulModSlow(c.a, c.b)
		if got := mulMod(c.a, c.b); got != want {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", c.a, c.b, got, want)
		}
	}
}

func TestMulModQuick(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= Prime
		b %= Prime
		return mulMod(a, b) == mulModSlow(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// mulModSlow computes a*b mod Prime by 128-bit schoolbook arithmetic.
func mulModSlow(a, b uint64) uint64 {
	var r uint64
	a %= Prime
	for b > 0 {
		if b&1 == 1 {
			r = (r + a) % Prime
		}
		a = (a * 2) % Prime
		b >>= 1
	}
	return r
}

// TestMeanNearZero: E[xi_i] = 0 over the seed randomness.
func TestMeanNearZero(t *testing.T) {
	const fams = 4000
	idx := []uint64{0, 1, 17, 255, 10000, 1 << 30}
	for _, i := range idx {
		var sum int64
		for s := uint64(0); s < fams; s++ {
			sum += New(s).Sign(i)
		}
		// Std error is sqrt(fams); allow 5 sigma.
		if math.Abs(float64(sum)) > 5*math.Sqrt(fams) {
			t.Errorf("E[xi_%d] = %g, too far from 0", i, float64(sum)/fams)
		}
	}
}

// TestPairwiseProductNearZero: E[xi_i xi_j] = 0 for i != j over seeds.
func TestPairwiseProductNearZero(t *testing.T) {
	const fams = 4000
	pairs := [][2]uint64{{0, 1}, {3, 500}, {100, 1 << 20}, {7, 8}}
	for _, pr := range pairs {
		var sum int64
		for s := uint64(0); s < fams; s++ {
			f := New(s + 9999)
			sum += f.Sign(pr[0]) * f.Sign(pr[1])
		}
		if math.Abs(float64(sum)) > 5*math.Sqrt(fams) {
			t.Errorf("E[xi_%d xi_%d] = %g, too far from 0", pr[0], pr[1], float64(sum)/fams)
		}
	}
}

// TestFourWiseProductNearZero: E[xi_i xi_j xi_k xi_l] = 0 for distinct
// indices (the four-wise independence the sketches rely on), and = 1 when
// indices pair up.
func TestFourWiseProductNearZero(t *testing.T) {
	const fams = 4000
	quads := [][4]uint64{{0, 1, 2, 3}, {5, 99, 1234, 98765}, {2, 4, 8, 16}}
	for _, q := range quads {
		var sum int64
		for s := uint64(0); s < fams; s++ {
			f := New(s + 777)
			sum += f.Sign(q[0]) * f.Sign(q[1]) * f.Sign(q[2]) * f.Sign(q[3])
		}
		if math.Abs(float64(sum)) > 5*math.Sqrt(fams) {
			t.Errorf("E[prod xi over %v] = %g, too far from 0", q, float64(sum)/fams)
		}
	}
	// Paired indices: xi_i^2 * xi_j^2 = 1 identically.
	f := New(5)
	for i := uint64(0); i < 100; i++ {
		if p := f.Sign(i) * f.Sign(i) * f.Sign(i+1) * f.Sign(i+1); p != 1 {
			t.Fatalf("paired product = %d", p)
		}
	}
}

// TestThreeWiseProductNearZero: degree-3 polynomials are 4-wise independent,
// so triple products of distinct variables also vanish in expectation.
func TestThreeWiseProductNearZero(t *testing.T) {
	const fams = 4000
	var sum int64
	for s := uint64(0); s < fams; s++ {
		f := New(s + 31337)
		sum += f.Sign(10) * f.Sign(20) * f.Sign(30)
	}
	if math.Abs(float64(sum)) > 5*math.Sqrt(fams) {
		t.Errorf("E[xi_10 xi_20 xi_30] = %g", float64(sum)/fams)
	}
}

func TestSumSigns(t *testing.T) {
	f := New(123)
	ids := []uint64{1, 5, 9, 1 << 22, 5}
	var want int64
	for _, id := range ids {
		want += f.Sign(id)
	}
	if got := f.SumSigns(ids); got != want {
		t.Fatalf("SumSigns = %d, want %d", got, want)
	}
	if got := f.SumSigns(nil); got != 0 {
		t.Fatalf("SumSigns(nil) = %d", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(987654321)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != SeedBytes {
		t.Fatalf("seed length %d", len(data))
	}
	var g Family
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		if f.Sign(i) != g.Sign(i) {
			t.Fatalf("round-tripped family disagrees at %d", i)
		}
	}
	if err := g.UnmarshalBinary(data[:10]); err == nil {
		t.Fatal("short seed should fail")
	}
	bad := make([]byte, SeedBytes)
	for i := range bad {
		bad[i] = 0xff
	}
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Fatal("out-of-range coefficient should fail")
	}
}

// TestBasisExpectationIdentity checks the core sketch identity of
// Section 3.1 at the xi level: for the interval/point products,
// E[xi_a xi_c] = 1 iff a == c, estimated over many families.
func TestBasisExpectationIdentity(t *testing.T) {
	const fams = 6000
	var same, diff int64
	for s := uint64(0); s < fams; s++ {
		f := New(s * 31)
		same += f.Sign(42) * f.Sign(42)
		diff += f.Sign(42) * f.Sign(43)
	}
	if same != fams {
		t.Errorf("E[xi^2] != 1: %d/%d", same, fams)
	}
	if math.Abs(float64(diff)) > 5*math.Sqrt(fams) {
		t.Errorf("E[xi_42 xi_43] = %g", float64(diff)/fams)
	}
}

func BenchmarkSign(b *testing.B) {
	f := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += f.Sign(uint64(i))
	}
	_ = sink
}

func BenchmarkSumSigns32(b *testing.B) {
	f := New(1)
	ids := make([]uint64, 32)
	for i := range ids {
		ids[i] = uint64(i * 1237)
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += f.SumSigns(ids)
	}
	_ = sink
}
