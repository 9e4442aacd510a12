package fixed

import "fmt"

// The elementwise operations of an LSTM hidden-state step. Each slice entry
// point runs its vector kernel where hasAVX512 holds and the kernel's guard
// admits every element of the call, and the scalar loop otherwise. The guard
// is the kernel's first pass, made before it writes anything, so a refused
// call leaves its operands intact for the scalar loop, also in place. The
// one-element forms (Sigmoid, Softsign, Mul) are always scalar: they are the
// reference the vector kernels are tested against, and what the probed
// shadow datapath in internal/kernels runs.

// PLAN holds the constants of a PLAN (piecewise linear approximation of a
// nonlinear function) sigmoid at one scale. Segment k covers the |x| that
// pass k of the breakpoints, counted as |x| ≥ Break[i] over i; it yields
// Mul(Slope[k], |x|) + Intercept[k], and the negative side is One minus the
// positive one.
type PLAN struct {
	Break     [3]Value
	Slope     [4]Value
	Intercept [4]Value
}

// Sigmoid evaluates the PLAN c at x without a data-dependent branch. The
// segment is an index, the count of breakpoints |x| passes (|x| wraps on
// MinInt64 to MinInt64, which passes none of the positive breakpoints).
// With s the sign mask of x (0 or -1), the result is y for s = 0 and
// One − y for s = -1: (One & s) + ((y^s) − s).
func (a Arith) Sigmoid(x Value, c *PLAN) Value {
	s := x >> 63
	ax := a.Abs(x)
	k := b2i(ax >= c.Break[0]) + b2i(ax >= c.Break[1]) + b2i(ax >= c.Break[2])
	y := a.Mul(c.Slope[k&3], ax) + c.Intercept[k&3]
	return (a.scale & s) + ((y ^ s) - s)
}

// SigmoidSlice replaces every v[j] with Sigmoid(v[j], c) and returns the
// kernel that ran. The vector kernel's guard admits a call when every
// product Slope[k]·|x| (wrapped, as Mul computes it) is within 2^52 − S,
// where RESCALE8 is exact.
func (a Arith) SigmoidSlice(v []Value, c *PLAN) Kernel {
	if hasAVX512 && sigmoidAVX512(v, c, a.scale, a.narrowBound()) {
		return KernelVector
	}
	for j, x := range v {
		v[j] = a.Sigmoid(x, c)
	}
	return KernelGeneric
}

// Softsign computes x/(|x|+1) exactly: (x·S)/(|x| + S) with rounding.
// The denominator is never 0 for any int64 x (|x| wraps only at MinInt64,
// to MinInt64), so Div cannot fail; in the band |x| > MaxInt64 − S
// it wraps negative, and x·S wraps for |x| > MaxInt64/S, both as int64
// arithmetic does.
func (a Arith) Softsign(x Value) Value {
	v, _ := a.Div(x, a.Abs(x)+a.scale)
	return v
}

// SoftsignSlice replaces every v[j] with Softsign(v[j]) and returns the
// kernel that ran. The vector kernel's guard admits a call when every
// |x| ≤ softsignBound, where x·S and |x| + S cannot wrap and the float
// quotient rounds exactly.
func (a Arith) SoftsignSlice(v []Value) Kernel {
	if hasAVX512 && softsignAVX512(v, a.scale, a.softsignBound) {
		return KernelVector
	}
	for j, x := range v {
		v[j] = a.Softsign(x)
	}
	return KernelGeneric
}

// MulSlice sets dst[i] = Mul(x[i], y[i]) and returns the kernel that ran.
// The vector kernel's guard admits a call when every product x[i]·y[i]
// (wrapped, as Mul computes it) is within 2^52 − S. dst may be x or y, but
// must not overlap them otherwise. It panics on a length mismatch, like Dot.
func (a Arith) MulSlice(dst, x, y []Value) Kernel {
	if len(x) != len(dst) || len(y) != len(dst) {
		panic(fmt.Sprintf("fixed: mul lengths %d, %d into %d", len(x), len(y), len(dst)))
	}
	if hasAVX512 && mulAVX512(dst, x, y, float64(a.scale), a.narrowBound()) {
		return KernelVector
	}
	for i := range dst {
		dst[i] = a.Mul(x[i], y[i])
	}
	return KernelGeneric
}

// MulAddSlice sets dst[i] = Mul(x[i], y[i]) + Mul(u[i], w[i]), each
// product rounded on its own, and returns the kernel that ran. The vector
// kernel's guard admits a call when both products of every element are
// within 2^52 − S. dst may be any of the operands, but must not overlap
// them otherwise. It panics on a length mismatch.
func (a Arith) MulAddSlice(dst, x, y, u, w []Value) Kernel {
	n := len(dst)
	if len(x) != n || len(y) != n || len(u) != n || len(w) != n {
		panic(fmt.Sprintf("fixed: mul-add lengths %d, %d, %d, %d into %d", len(x), len(y), len(u), len(w), n))
	}
	if hasAVX512 && mulAddAVX512(dst, x, y, u, w, float64(a.scale), a.narrowBound()) {
		return KernelVector
	}
	for i := range dst {
		dst[i] = a.Mul(x[i], y[i]) + a.Mul(u[i], w[i])
	}
	return KernelGeneric
}

// softsignLimit is the largest |x| for which SoftsignSlice's vector kernel
// is exact at scale s: ⌊(2^52 − s)/(s + 1)⌋, 0 for s ≥ 2^52. Then
// |x·s| + |x| + s ≤ 2^52, so neither x·s nor |x| + s wraps, and the
// numerator x·s is within 2^52 minus the divisor |x| + s, the bound under
// which ROUNDDIV8 equals roundedDiv. DESIGN.md "Fixed-point hot path"
// derives it.
func softsignLimit(s int64) uint64 {
	return uint64(max(1<<52-s, 0)) / (uint64(s) + 1)
}

// b2i is 1 for true and 0 for false; it compiles to a SETcc, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
