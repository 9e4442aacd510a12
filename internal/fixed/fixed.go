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

// MulWide is Mul using 128-bit intermediate math, immune to overflow of the
// raw product. It is slower; kernels use it only when magnitudes may be large.
func (a Arith) MulWide(x, y Value) Value {
	hi, lo := bits64Mul(x, y)
	return div128by64(hi, lo, a.scale)
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

// Abs returns |x|.
func (a Arith) Abs(x Value) Value {
	if x < 0 {
		return -x
	}
	return x
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
// row-major len(dst)×n matrix and n = len(x). It computes four rows per pass
// over x, so each x[i] is loaded once for four multiplies. Every row keeps its
// own accumulator and its own final rescale, so dst[j] is bit-identical to
// the per-row Dot: int64 addition is associative modulo 2^64, so even a
// wrapped accumulator ends on the same value.
//
// MatVec panics on a shape mismatch, like Dot.
func (a Arith) MatVec(dst, w, x []Value) {
	n := len(x)
	if len(w) != len(dst)*n {
		panic(fmt.Sprintf("fixed: matvec shape mismatch: %d weights for %d rows of %d", len(w), len(dst), n))
	}
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		blk := w[j*n : (j+4)*n]
		s0, s1, s2, s3 := dot4(blk[:n], blk[n:2*n], blk[2*n:3*n], blk[3*n:], x)
		d := dst[j : j+4 : j+4]
		d[0], d[1], d[2], d[3] = a.rescale(s0), a.rescale(s1), a.rescale(s2), a.rescale(s3)
	}
	for ; j < len(dst); j++ {
		dst[j] = a.Dot(w[j*n:(j+1)*n], x)
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
// the correction Mul, Dot and FromRaw share. It returns exactly
// roundedDiv(raw, a.scale), wrapped bias included. At DefaultScale the
// divisor is a compile-time constant, so the division compiles to a multiply
// and shifts, and the ±S/2 bias is selected from the sign bit without a
// branch: s is 0 or -1, and (S/2 ^ s) - s is S/2 or -S/2.
func (a Arith) rescale(raw int64) int64 {
	if a.scale == DefaultScale {
		s := raw >> 63
		return (raw + (DefaultScale/2 ^ s) - s) / DefaultScale
	}
	return roundedDiv(raw, a.scale)
}

// roundedDiv divides num by den (den > 0) rounding half away from zero.
func roundedDiv(num, den int64) int64 {
	if num >= 0 {
		return (num + den/2) / den
	}
	return (num - den/2) / den
}

// bits64Mul returns the 128-bit product of x and y as (hi, lo) in two's
// complement.
func bits64Mul(x, y int64) (hi int64, lo uint64) {
	const mask = 0xFFFFFFFF
	neg := false
	ux, uy := uint64(x), uint64(y)
	if x < 0 {
		ux = uint64(-x)
		neg = !neg
	}
	if y < 0 {
		uy = uint64(-y)
		neg = !neg
	}
	x0, x1 := ux&mask, ux>>32
	y0, y1 := uy&mask, uy>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += x0 * y1
	uhi := x1*y1 + w2 + w1>>32
	ulo := ux * uy
	if neg {
		// Two's complement negation of the 128-bit value.
		ulo = ^ulo + 1
		uhi = ^uhi
		if ulo == 0 {
			uhi++
		}
	}
	return int64(uhi), ulo
}

// div128by64 divides the signed 128-bit value (hi, lo) by the positive den,
// rounding half away from zero. It is only used for magnitudes far from the
// 128-bit limit, so the simple long-division loop below is sufficient.
func div128by64(hi int64, lo uint64, den int64) int64 {
	neg := hi < 0
	uhi, ulo := uint64(hi), lo
	if neg {
		ulo = ^ulo + 1
		uhi = ^uhi
		if ulo == 0 {
			uhi++
		}
	}
	// Binary long division of the 128-bit magnitude by den.
	var q, r uint64
	d := uint64(den)
	for i := 127; i >= 0; i-- {
		r <<= 1
		var bit uint64
		if i >= 64 {
			bit = (uhi >> (i - 64)) & 1
		} else {
			bit = (ulo >> i) & 1
		}
		r |= bit
		if r >= d {
			r -= d
			if i < 64 {
				q |= 1 << i
			}
		}
	}
	// Round half away from zero.
	if 2*r >= d {
		q++
	}
	if neg {
		return -int64(q)
	}
	return int64(q)
}
