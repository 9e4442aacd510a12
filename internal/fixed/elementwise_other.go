//go:build !amd64

package fixed

// The elementwise vector kernels exist off amd64 only so the package
// compiles; they are never called, because hasAVX512 is false.

func sigmoidAVX512(v []Value, c *PLAN, scale int64, bound uint64) bool {
	panic("fixed: AVX-512 kernel called on a non-amd64 build")
}

func softsignAVX512(v []Value, scale int64, bound uint64) bool {
	panic("fixed: AVX-512 kernel called on a non-amd64 build")
}

func mulAVX512(dst, x, y []Value, scale float64, bound uint64) bool {
	panic("fixed: AVX-512 kernel called on a non-amd64 build")
}

func mulAddAVX512(dst, x, y, u, w []Value, scale float64, bound uint64) bool {
	panic("fixed: AVX-512 kernel called on a non-amd64 build")
}
