package fixed

// The AVX-512 elementwise kernels. Each runs in two passes over its
// operands: the first evaluates the guard on every element and returns false,
// having written nothing, when any element fails it; the second computes and
// stores, eight lanes at a time with the len%8 tail under a mask. They need
// what the MatVec kernels need (see cpuHasAVX512DQ), and callers check the
// lengths.

// sigmoidAVX512 is SigmoidSlice's vector kernel: it replaces every v[j]
// with Sigmoid(v[j], c) when each product Slope[k]·|x| is within bound in
// magnitude.
//
//go:noescape
func sigmoidAVX512(v []Value, c *PLAN, scale int64, bound uint64) bool

// softsignAVX512 is SoftsignSlice's vector kernel: it replaces every v[j]
// with Softsign(v[j]) when every |v[j]| ≤ bound (unsigned, so MinInt64
// fails).
//
//go:noescape
func softsignAVX512(v []Value, scale int64, bound uint64) bool

// mulAVX512 is MulSlice's vector kernel: it sets dst[i] = Mul(x[i], y[i])
// when every wrapped product is within bound in magnitude.
//
//go:noescape
func mulAVX512(dst, x, y []Value, scale float64, bound uint64) bool

// mulAddAVX512 is MulAddSlice's vector kernel: it sets dst[i] =
// Mul(x[i], y[i]) + Mul(u[i], w[i]) when both wrapped products of every
// element are within bound in magnitude.
//
//go:noescape
func mulAddAVX512(dst, x, y, u, w []Value, scale float64, bound uint64) bool
