//go:build !amd64

package fixed

// hasAVX512 is false off amd64: MatVec always runs KernelGeneric.
const hasAVX512 = false

// The AVX-512 kernels exist off amd64 only so MatVec and the tests compile;
// they are never called, because hasAVX512 is false.
func rowSums4NarrowAVX512(dst, w, x []Value) {
	panic("fixed: AVX-512 kernel called on a non-amd64 build")
}

func rescaleAVX512(v []Value, scale float64) {
	panic("fixed: AVX-512 kernel called on a non-amd64 build")
}
