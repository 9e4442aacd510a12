// Package fixed implements the scaled-integer fixed-point arithmetic used by
// the CSD inference kernels.
//
// The paper (§III-D) scales floating-point weights, biases, and embeddings by
// a factor of 10^6 before host initialization, converting them to integers so
// the FPGA can execute multiplications on DSP slices instead of floating-point
// logic. After each multiplication the product carries a scale of 10^12 and is
// corrected back to the working scale with rounding, keeping accumulated error
// small for subsequent operations.
//
// The package is deliberately tiny and allocation-free: every kernel operation
// in internal/kernels runs on these primitives, and the gate matrix-vector
// products run through MatVec, which writes into a caller-owned destination.
// On amd64 CPUs with AVX512F, AVX512DQ and OS-enabled ZMM state (checked
// once, at package init, with CPUID and XGETBV), MatVec sums its rows in
// Go assembly with 8-lane VPMULLQ/VPADDQ; everywhere else it runs the scalar
// four-row kernel. Both return bit-identical results: VPMULLQ keeps the low
// 64 bits of each product, as Go's int64 multiply does, and wrapping int64
// sums do not depend on their order.
package fixed

import (
	"errors"
	"fmt"
	"math"
)

// DefaultScale is the scaling factor used by the paper: 10^6. It emphasizes
// the mantissa of the small weight values produced by training.
const DefaultScale = 1_000_000

// ErrOverflow is returned by checked conversions when a value cannot be
// represented at the requested scale without overflowing int64.
var ErrOverflow = errors.New("fixed: value overflows int64 at this scale")

// Value is a fixed-point number: the real value times the owning Arith scale.
// A Value is only meaningful relative to the Arith that produced it.
type Value = int64

// Arith performs fixed-point arithmetic at a particular scale.
//
// The zero value is not usable; construct with New. Arith is immutable and
// safe for concurrent use.
type Arith struct {
	scale int64
}

// New returns an Arith operating at the given scale (e.g. 1e6).
// The scale must be positive.
func New(scale int64) (Arith, error) {
	if scale <= 0 {
		return Arith{}, fmt.Errorf("fixed: scale must be positive, got %d", scale)
	}
	return Arith{scale: scale}, nil
}

// MustNew is like New but panics on an invalid scale. It is intended for
// package-level defaults with compile-time-known scales.
func MustNew(scale int64) Arith {
	a, err := New(scale)
	if err != nil {
		panic(err)
	}
	return a
}

// Default is an Arith at the paper's 10^6 scale.
var Default = MustNew(DefaultScale)

// Scale returns the scaling factor of a.
func (a Arith) Scale() int64 { return a.scale }

// FromFloat converts a float64 to fixed point with round-half-away-from-zero,
// the rounding the paper applies to "closely match the original numbers".
func (a Arith) FromFloat(f float64) Value {
	return Value(math.Round(f * float64(a.scale)))
}

// FromFloatChecked is FromFloat with overflow detection.
func (a Arith) FromFloatChecked(f float64) (Value, error) {
	scaled := f * float64(a.scale)
	if math.IsNaN(scaled) || scaled >= math.MaxInt64 || scaled <= math.MinInt64 {
		return 0, fmt.Errorf("%w: %g at scale %d", ErrOverflow, f, a.scale)
	}
	return Value(math.Round(scaled)), nil
}

// ToFloat converts a fixed-point value back to float64.
func (a Arith) ToFloat(v Value) float64 {
	return float64(v) / float64(a.scale)
}

// FromInt converts an integer real value to fixed point.
func (a Arith) FromInt(i int64) Value { return i * a.scale }

// One is the fixed-point representation of 1.0.
func (a Arith) One() Value { return a.scale }

// Add returns x + y. Addition needs no rescaling.
func (a Arith) Add(x, y Value) Value { return x + y }

// Sub returns x - y.
func (a Arith) Sub(x, y Value) Value { return x - y }

// Mul returns x * y rescaled back to the working scale with rounding.
//
// The raw product of two scale-S values carries scale S^2 (10^12 for the
// default scale); Mul performs the paper's correction by dividing the product
// by S, rounding half away from zero.
func (a Arith) Mul(x, y Value) Value {
	return a.rescale(x * y)
}

// Div returns x / y at the working scale with rounding, or an error when y is
// zero.
func (a Arith) Div(x, y Value) (Value, error) {
	if y == 0 {
		return 0, errors.New("fixed: division by zero")
	}
	return roundedDiv(x*a.scale, y), nil
}

// Neg returns -x.
func (a Arith) Neg(x Value) Value { return -x }

// Abs returns |x| without a branch: with the sign mask s = x >> 63 (0 or
// -1), |x| is (x ^ s) - s. Like -x, it wraps on MinInt64 to MinInt64.
func (a Arith) Abs(x Value) Value {
	s := x >> 63
	return (x ^ s) - s
}

// Dot returns the fixed-point dot product of x and y, accumulating raw
// scale-S^2 products and performing a single rescale at the end. Deferring
// the correction to the accumulated sum loses less precision than rescaling
// each product, and mirrors what a DSP MAC cascade does in hardware.
//
// Dot panics if the slices have different lengths; kernel shapes are fixed at
// initialization so a mismatch is a programming error, not an input error.
func (a Arith) Dot(x, y []Value) Value {
	if len(x) != len(y) {
		panic(fmt.Sprintf("fixed: dot length mismatch %d != %d", len(x), len(y)))
	}
	y = y[:len(x)]
	var acc int64
	for i := range x {
		acc += x[i] * y[i]
	}
	return a.rescale(acc)
}

// MatVec sets dst[j] = Dot(w[j*n:(j+1)*n], x) for every row j, where w is a
// row-major len(dst)×n matrix and n = len(x). It computes the raw sums of four
// rows per pass over x, so each x[i] is loaded once for four multiplies: on
// AVX-512 CPUs with rowSums4AVX512, elsewhere with rowSums4Generic. Every row
// keeps its own accumulator and its own final rescale, so dst[j] is
// bit-identical to the per-row Dot: int64 addition is associative modulo 2^64,
// so even a wrapped accumulator ends on the same value.
//
// MatVec panics on a shape mismatch, like Dot.
func (a Arith) MatVec(dst, w, x []Value) {
	if hasAVX512 {
		a.matVec(rowSums4AVX512, dst, w, x)
		return
	}
	a.matVec(rowSums4Generic, dst, w, x)
}

// matVec is MatVec with the four-row kernel passed in, so tests and
// benchmarks can run either kernel through the same rescale and tail rows.
func (a Arith) matVec(rowSums4 func(dst, w, x []Value), dst, w, x []Value) {
	n := len(x)
	if len(w) != len(dst)*n {
		panic(fmt.Sprintf("fixed: matvec shape mismatch: %d weights for %d rows of %d", len(w), len(dst), n))
	}
	rowSums4(dst, w, x)
	full := len(dst) &^ 3
	for j, raw := range dst[:full] {
		dst[j] = a.rescale(raw)
	}
	for j := full; j < len(dst); j++ {
		dst[j] = a.Dot(w[j*n:(j+1)*n], x)
	}
}

// rowSums4Generic sets dst[j] to the raw accumulator of row j against x for
// every row in a full block of four (j < len(dst)&^3), leaving the rest of dst
// alone. Callers guarantee len(w) == len(dst)*len(x).
func rowSums4Generic(dst, w, x []Value) {
	n := len(x)
	for j := 0; j+4 <= len(dst); j += 4 {
		blk := w[j*n : (j+4)*n]
		d := dst[j : j+4 : j+4]
		d[0], d[1], d[2], d[3] = dot4(blk[:n], blk[n:2*n], blk[2*n:3*n], blk[3*n:], x)
	}
}

// QuantizeSlice converts a float64 slice to fixed point in one pass.
func (a Arith) QuantizeSlice(fs []float64) []Value {
	out := make([]Value, len(fs))
	for i, f := range fs {
		out[i] = a.FromFloat(f)
	}
	return out
}

// DequantizeSlice converts a fixed-point slice back to float64.
func (a Arith) DequantizeSlice(vs []Value) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = a.ToFloat(v)
	}
	return out
}

// MaxAbsError returns the worst-case representation error of a single
// quantization at this scale: half a unit in the last place.
func (a Arith) MaxAbsError() float64 {
	return 0.5 / float64(a.scale)
}

// dot4 returns the raw accumulators of four rows against x. It is kept out
// of line on purpose: inlined into MatVec, the register allocator spills the
// four sums to the stack on every iteration, which costs more than the call.
//
//go:noinline
func dot4(r0, r1, r2, r3, x []Value) (s0, s1, s2, s3 int64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for i, v := range x {
		s0 += r0[i] * v
		s1 += r1[i] * v
		s2 += r2[i] * v
		s3 += r3[i] * v
	}
	return s0, s1, s2, s3
}

// rescale divides a raw scale-S^2 value by S, rounding half away from zero:
// the correction Mul, Dot and FromRaw share. It is roundedDiv(raw, a.scale);
// at DefaultScale the divisor is a compile-time constant in the inlined
// roundedDiv, so the division compiles to a multiply and shifts.
func (a Arith) rescale(raw int64) int64 {
	if a.scale == DefaultScale {
		return roundedDiv(raw, DefaultScale)
	}
	return roundedDiv(raw, a.scale)
}

// roundedDiv divides num by den (den != 0) rounding half away from zero:
// (num ± den/2) / den, the bias taking num's sign. The bias comes from the
// sign bit without a branch: s is 0 or -1, and (den/2 ^ s) - s is den/2 or
// -(den/2) for any den, so a negative den and a wrapped bias need no
// special case.
func roundedDiv(num, den int64) int64 {
	s := num >> 63
	return (num + (den/2 ^ s) - s) / den
}
