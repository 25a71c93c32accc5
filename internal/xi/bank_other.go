//go:build !amd64

package xi

// useAVX2 is false off amd64: SumSignsMany runs sumSignsScalar.
const useAVX2 = false

// sumSignsAVX2 exists off amd64 only so SumSignsMany compiles; useAVX2
// keeps it from being called.
func (b *Bank) sumSignsAVX2(ids []uint64, lo, hi int, acc []int64) {
	b.sumSignsScalar(ids, lo, hi, acc)
}
