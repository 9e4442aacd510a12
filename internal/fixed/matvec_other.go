//go:build !amd64

package fixed

// hasAVX512 is false off amd64: MatVec always runs rowSums4Generic.
const hasAVX512 = false

// rowSums4AVX512 exists off amd64 only so MatVec and the tests compile; it is
// never called, because hasAVX512 is false.
func rowSums4AVX512(dst, w, x []Value) {
	panic("fixed: AVX-512 kernel called on a non-amd64 build")
}
