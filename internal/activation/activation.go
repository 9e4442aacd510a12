// Package activation provides the activation functions used by the LSTM
// classifier, in both float64 (offline training) and fixed-point (FPGA
// kernel) forms.
//
// The paper (§III-D) replaces every tanh in the LSTM with softsign,
//
//	softsign(x) = x / (|x| + 1),
//
// because softsign shares tanh's S-shape and asymptotes but avoids the exp()
// operation that is expensive to synthesize on an FPGA. The sigmoid gates are
// kept; in fixed point they are realized with the classic PLAN piecewise-
// linear approximation, which needs only shifts, adds, and compares —
// exactly the operations DSP slices execute in one cycle.
package activation

import (
	"fmt"
	"math"

	"github.com/kfrida1/csdinf/internal/fixed"
)

// Kind identifies an activation function.
type Kind int

// Supported activation kinds. Enums start at 1 so the zero value is invalid
// and cannot be mistaken for a real choice.
const (
	Sigmoid Kind = iota + 1
	Tanh
	Softsign
	Identity
)

// String returns the lower-case name of the activation.
func (k Kind) String() string {
	switch k {
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Softsign:
		return "softsign"
	case Identity:
		return "identity"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Func returns the float64 implementation of k.
func (k Kind) Func() (func(float64) float64, error) {
	switch k {
	case Sigmoid:
		return SigmoidF, nil
	case Tanh:
		return math.Tanh, nil
	case Softsign:
		return SoftsignF, nil
	case Identity:
		return func(x float64) float64 { return x }, nil
	default:
		return nil, fmt.Errorf("activation: unknown kind %d", int(k))
	}
}

// Derivative returns d/dx of k evaluated *from the activated output* y (the
// form used during backpropagation) for Sigmoid and Tanh, and from the raw
// input x for Softsign (whose derivative is not expressible from the output
// alone without an extra inversion).
//
// The returned function's argument convention is documented per kind:
//   - Sigmoid:  f(y) = y(1-y)          (argument is the output)
//   - Tanh:     f(y) = 1-y²            (argument is the output)
//   - Softsign: f(x) = 1/(1+|x|)²      (argument is the pre-activation)
//   - Identity: f(_) = 1
func (k Kind) Derivative() (func(float64) float64, error) {
	switch k {
	case Sigmoid:
		return func(y float64) float64 { return y * (1 - y) }, nil
	case Tanh:
		return func(y float64) float64 { return 1 - y*y }, nil
	case Softsign:
		return func(x float64) float64 {
			d := 1 + math.Abs(x)
			return 1 / (d * d)
		}, nil
	case Identity:
		return func(float64) float64 { return 1 }, nil
	default:
		return nil, fmt.Errorf("activation: unknown kind %d", int(k))
	}
}

// SigmoidF is the float64 logistic function 1/(1+e^-x).
func SigmoidF(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}

// SoftsignF is the float64 softsign x/(|x|+1).
func SoftsignF(x float64) float64 {
	return x / (math.Abs(x) + 1)
}

// Fixed evaluates activations in fixed-point arithmetic. It is the form the
// FPGA kernels execute. Fixed is immutable and safe for concurrent use.
type Fixed struct {
	a    fixed.Arith
	plan *planConsts
}

// planConsts holds the PLAN sigmoid's breakpoints and segment coefficients
// quantized once at the evaluator's scale, so Sigmoid itself does no float
// conversion. Segment k covers the |x| that pass k of the breakpoints
// 1, 2.375 and 5; segment 3 has slope 0 and intercept One, so it yields One
// exactly (Mul(0, |x|) is 0).
type planConsts struct {
	b2375, five fixed.Value // breakpoints above One
	slope       [4]fixed.Value
	intercept   [4]fixed.Value
}

// NewFixed returns a fixed-point activation evaluator over arith a.
func NewFixed(a fixed.Arith) Fixed {
	q := a.FromFloat
	return Fixed{a: a, plan: &planConsts{
		b2375:     q(2.375),
		five:      a.FromInt(5),
		slope:     [4]fixed.Value{q(0.25), q(0.125), q(0.03125), 0},
		intercept: [4]fixed.Value{q(0.5), q(0.625), q(0.84375), a.One()},
	}}
}

// Softsign computes x/(|x|+1) exactly in fixed point:
// (x*S) / (|x| + S) with rounding, where S is the scale. No approximation is
// involved; this is why the paper prefers softsign on hardware.
func (f Fixed) Softsign(x fixed.Value) fixed.Value {
	v := [1]fixed.Value{x}
	f.SoftsignSlice(v[:])
	return v[0]
}

// SoftsignSlice replaces every v[j] with Softsign(v[j]). The denominator
// |x| + S is never 0 for any int64 x (|x| wraps only at MinInt64, to
// MinInt64), so Div never fails here.
func (f Fixed) SoftsignSlice(v []fixed.Value) {
	one := f.a.One()
	for j, x := range v {
		v[j], _ = f.a.Div(x, f.a.Add(f.a.Abs(x), one))
	}
}

// Sigmoid computes the PLAN (Piecewise Linear Approximation of a Nonlinear
// function, Amin et al.) approximation of the logistic sigmoid:
//
//	|x| >= 5          -> 1
//	2.375 <= |x| < 5   -> 0.03125|x| + 0.84375
//	1 <= |x| < 2.375   -> 0.125|x|  + 0.625
//	0 <= |x| < 1       -> 0.25|x|   + 0.5
//
// with sigmoid(-x) = 1 - sigmoid(x). Maximum absolute error is below 0.019,
// which is immaterial next to the gate saturation behaviour the LSTM relies
// on.
func (f Fixed) Sigmoid(x fixed.Value) fixed.Value {
	v := [1]fixed.Value{x}
	f.SigmoidSlice(v[:])
	return v[0]
}

// SigmoidSlice replaces every v[j] with Sigmoid(v[j]) without a
// data-dependent branch. The segment is an index, the count of breakpoints
// |x| passes (|x| wraps on MinInt64 to MinInt64, which lands in segment 0).
// With s the sign mask of x (0 or -1), the result is y for s = 0 and
// One - y for s = -1: (One & s) + ((y^s) - s).
func (f Fixed) SigmoidSlice(v []fixed.Value) {
	one := f.a.One()
	c := f.plan
	for j, x := range v {
		s := x >> 63
		ax := f.a.Abs(x)
		k := b2i(ax >= one) + b2i(ax >= c.b2375) + b2i(ax >= c.five)
		y := f.a.Add(f.a.Mul(c.slope[k&3], ax), c.intercept[k&3])
		v[j] = f.a.Add(one&s, f.a.Sub(y^s, s))
	}
}

// b2i is 1 for true and 0 for false; it compiles to a SETcc, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Tanh approximates tanh via the identity tanh(x) = 2*sigmoid(2x) - 1 on top
// of the PLAN sigmoid. It exists for the activation ablation; the production
// kernels use Softsign instead, per the paper.
func (f Fixed) Tanh(x fixed.Value) fixed.Value {
	two := f.a.FromInt(2)
	return f.a.Sub(f.a.Mul(two, f.Sigmoid(f.a.Mul(two, x))), f.a.One())
}

// Apply evaluates kind k at x. Identity returns x unchanged.
func (f Fixed) Apply(k Kind, x fixed.Value) (fixed.Value, error) {
	switch k {
	case Sigmoid:
		return f.Sigmoid(x), nil
	case Tanh:
		return f.Tanh(x), nil
	case Softsign:
		return f.Softsign(x), nil
	case Identity:
		return x, nil
	default:
		return 0, fmt.Errorf("activation: unknown kind %d", int(k))
	}
}

// PLANMaxError is the documented worst-case absolute error of the PLAN
// sigmoid approximation.
const PLANMaxError = 0.0189
