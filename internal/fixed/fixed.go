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
// products run through MatVec, which reads a Matrix and writes into a
// caller-owned destination. MatVec picks one of three row-sum kernels per
// call, all bit-identical to one Dot per row:
//   - KernelNarrow, on amd64 CPUs with AVX512F, AVX512DQ and OS-enabled ZMM
//     state (checked once, at package init, with CPUID and XGETBV), when every
//     weight and every x is within ±(2^31−1) and the row sums stay within
//     2^52 − S. It multiplies with 8-lane VPMULDQ, exact for such operands,
//     and rescales in float64 in the vector unit, exact below that bound.
//   - KernelSIMD, on the same CPUs for every other operand: 8-lane VPMULLQ,
//     which keeps the low 64 bits of each product as Go's int64 multiply
//     does, and the scalar rescale.
//   - KernelGeneric everywhere else: the scalar four-row loop.
//
// Wrapping int64 sums do not depend on their order, so the two 64-bit
// kernels agree for any operands.
//
// The elementwise operations of the LSTM hidden state have one slice entry
// point each, which picks its kernel per call in the same way (see
// elementwise.go):
//   - SigmoidSlice, the PLAN sigmoid (sigmoidAVX512);
//   - SoftsignSlice, x·S/(|x| + S) (softsignAVX512);
//   - MulSlice, Mul elementwise (mulAVX512);
//   - MulAddSlice, Mul(x, y) + Mul(u, w) elementwise (mulAddAVX512).
//
// Each runs KernelVector, its AVX-512 kernel, on the same CPUs as the MatVec
// kernels when the kernel's guard admits every element of the call, and
// KernelGeneric, the scalar loop over the one-element form, otherwise. A
// guard admits only operands for which the kernel's float64 rounding is
// proven bit-identical to roundedDiv (DESIGN.md "Fixed-point hot path").
package fixed

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	scale         int64
	softsignBound uint64 // softsignLimit(scale), computed once by New
}

// New returns an Arith operating at the given scale (e.g. 1e6).
// The scale must be positive.
func New(scale int64) (Arith, error) {
	if scale <= 0 {
		return Arith{}, fmt.Errorf("fixed: scale must be positive, got %d", scale)
	}
	return Arith{scale: scale, softsignBound: softsignLimit(scale)}, nil
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

// Matrix is a row-major matrix of fixed-point values for MatVec, carrying
// the two operand bounds MatVec picks its kernel by. NewMatrix computes them
// once, so the data must not be modified afterwards. The zero value is an
// empty matrix.
type Matrix struct {
	data     []Value
	cols     int
	fits32   bool   // every |entry| ≤ MaxInt32
	maxRowL1 uint64 // the largest Σ|entry| over a row, saturating at MaxUint64
}

// NewMatrix wraps data as a matrix of rows cols wide. It panics when data
// does not split into whole rows: cols must be positive, or 0 with no data.
func NewMatrix(data []Value, cols int) Matrix {
	if cols < 0 || (cols == 0 && len(data) != 0) || (cols > 0 && len(data)%cols != 0) {
		panic(fmt.Sprintf("fixed: %d values do not form rows of %d", len(data), cols))
	}
	m := Matrix{data: data, cols: cols, fits32: true}
	for r := 0; r < len(data); r += cols {
		var l1 uint64
		for _, v := range data[r : r+cols] {
			u := magnitude(v)
			m.fits32 = m.fits32 && u <= math.MaxInt32
			if l1 += u; l1 < u {
				l1 = math.MaxUint64
			}
		}
		m.maxRowL1 = max(m.maxRowL1, l1)
	}
	return m
}

// Row returns row r of m.
func (m Matrix) Row(r int) []Value { return m.data[r*m.cols : (r+1)*m.cols] }

// Kernel names the row-sum kernel a MatVec call runs.
type Kernel string

const (
	// KernelNarrow multiplies with AVX-512 VPMULDQ (32×32→64 bits) and
	// rescales in the vector unit. MatVec picks it only where that is
	// provably bit-identical to Dot; see narrowExact.
	KernelNarrow Kernel = "narrow"
	// KernelSIMD multiplies with AVX-512 VPMULLQ (the low 64 bits of a
	// 64×64 product) and rescales one row at a time in Go.
	KernelSIMD Kernel = "simd"
	// KernelGeneric is the scalar dot4 loop, the only kernel off AVX-512,
	// and the scalar loop of each elementwise operation.
	KernelGeneric Kernel = "generic"
	// KernelVector is an elementwise operation's AVX-512 kernel: eight
	// lanes per instruction, products from VPMULLQ rounded in float64. The
	// slice entry points pick it only where their guard proves it
	// bit-identical to the scalar loop; see elementwise.go.
	KernelVector Kernel = "vector"
)

// MatVec sets dst[j] = Dot(w.Row(j), x) for every row j of the len(dst)×n
// matrix w, where n = len(x). It computes the raw sums of four rows per pass
// over x, so each x[i] is loaded once for four multiplies, with the kernel
// MatVecKernel names. Every row keeps its own accumulator and its own final
// rescale, so dst[j] is bit-identical to the per-row Dot: int64 addition is
// associative modulo 2^64, so even a wrapped accumulator ends on the same
// value, and KernelNarrow runs only where its products and rescale are exact.
// Rows past the last full block of four go through Dot.
//
// MatVec panics on a shape mismatch, like Dot.
func (a Arith) MatVec(dst []Value, w Matrix, x []Value) {
	n := len(x)
	if w.cols != n || len(w.data) != len(dst)*n {
		panic(fmt.Sprintf("fixed: matvec shape mismatch: %d weights in rows of %d for %d rows of %d", len(w.data), w.cols, len(dst), n))
	}
	a.matVec(a.MatVecKernel(w, x), dst, w.data, x)
}

// MatVecKernel returns the kernel MatVec runs for w and x on this CPU:
// KernelNarrow where the CPU has AVX-512 and narrowExact holds, KernelSIMD
// elsewhere on AVX-512, and KernelGeneric everywhere else.
func (a Arith) MatVecKernel(w Matrix, x []Value) Kernel {
	switch {
	case !hasAVX512:
		return KernelGeneric
	case a.narrowExact(w, x):
		return KernelNarrow
	default:
		return KernelSIMD
	}
}

// narrowExact reports whether KernelNarrow computes MatVec(dst, w, x) bit
// for bit. That holds when
//   - every |weight| ≤ 2^31−1 (w.fits32, checked once by NewMatrix),
//   - every |x| ≤ 2^31−1 (checked here, one pass over x per call), so
//     VPMULDQ's signed 32×32→64 product of the low dwords is the int64
//     product, and
//   - maxRowL1·max|x| ≤ narrowBound, which bounds every partial and final
//     row sum, so no sum wraps and the float rescale equals roundedDiv.
func (a Arith) narrowExact(w Matrix, x []Value) bool {
	if !w.fits32 {
		return false
	}
	var mx uint64
	for _, v := range x {
		mx = max(mx, magnitude(v))
	}
	hi, lo := bits.Mul64(w.maxRowL1, mx)
	return mx <= math.MaxInt32 && hi == 0 && lo <= a.narrowBound()
}

// narrowBound is B = 2^52 − S, the largest |row sum| for which KernelNarrow's
// float64 rescale equals roundedDiv(sum, S). DESIGN.md "Fixed-point hot path"
// derives it: below B, float64(sum) is exact, and the correctly rounded
// quotient sum/S lands on the same side of every k + 1/2 as the exact one.
// For S ≥ 2^52 it is 0, which admits only all-zero sums.
func (a Arith) narrowBound() uint64 {
	return uint64(max(1<<52-a.scale, 0))
}

// matVec is MatVec on the kernel k, whatever this CPU would pick, so tests
// and benchmarks can run each kernel through the same tail rows. Callers
// check the shape.
func (a Arith) matVec(k Kernel, dst, w, x []Value) {
	n := len(x)
	full := len(dst) &^ 3
	switch k {
	case KernelNarrow:
		rowSums4NarrowAVX512(dst, w, x)
		rescaleAVX512(dst[:full], float64(a.scale))
	case KernelSIMD:
		rowSums4AVX512(dst, w, x)
		a.rescaleSlice(dst[:full])
	default:
		rowSums4Generic(dst, w, x)
		a.rescaleSlice(dst[:full])
	}
	for j := full; j < len(dst); j++ {
		dst[j] = a.Dot(w[j*n:(j+1)*n], x)
	}
}

// rescaleSlice rescales every raw sum in v in place.
func (a Arith) rescaleSlice(v []Value) {
	for j, raw := range v {
		v[j] = a.rescale(raw)
	}
}

// magnitude returns |v| as a uint64, exact for every int64 (2^63 for
// MinInt64).
func magnitude(v Value) uint64 {
	s := v >> 63
	return uint64((v ^ s) - s)
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
