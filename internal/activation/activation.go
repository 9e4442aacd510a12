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
//
// The arithmetic lives in internal/fixed: the one-element forms are its
// scalar code, and the slice forms its entry points, which run an AVX-512
// kernel where the CPU has one and its guard proves it bit-identical to the
// scalar code, and the scalar loop otherwise.
type Fixed struct {
	a    fixed.Arith
	plan *fixed.PLAN
}

// NewFixed returns a fixed-point activation evaluator over arith a. It
// quantizes the PLAN sigmoid's breakpoints and segment coefficients once,
// so the activations do no float conversion. Segment k covers the |x| that
// pass k of the breakpoints 1, 2.375 and 5; segment 3 has slope 0 and
// intercept One, so it yields One exactly (Mul(0, |x|) is 0).
func NewFixed(a fixed.Arith) Fixed {
	q := a.FromFloat
	return Fixed{a: a, plan: &fixed.PLAN{
		Break:     [3]fixed.Value{a.One(), q(2.375), a.FromInt(5)},
		Slope:     [4]fixed.Value{q(0.25), q(0.125), q(0.03125), 0},
		Intercept: [4]fixed.Value{q(0.5), q(0.625), q(0.84375), a.One()},
	}}
}

// Softsign computes x/(|x|+1) exactly in fixed point:
// (x*S) / (|x| + S) with rounding, where S is the scale. No approximation is
// involved; this is why the paper prefers softsign on hardware. It is
// always scalar.
func (f Fixed) Softsign(x fixed.Value) fixed.Value { return f.a.Softsign(x) }

// SoftsignSlice replaces every v[j] with Softsign(v[j]) and returns the
// kernel that ran (fixed.Arith.SoftsignSlice).
func (f Fixed) SoftsignSlice(v []fixed.Value) fixed.Kernel { return f.a.SoftsignSlice(v) }

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
// on. It is always scalar, and has no data-dependent branch
// (fixed.Arith.Sigmoid).
func (f Fixed) Sigmoid(x fixed.Value) fixed.Value { return f.a.Sigmoid(x, f.plan) }

// SigmoidSlice replaces every v[j] with Sigmoid(v[j]) and returns the
// kernel that ran (fixed.Arith.SigmoidSlice).
func (f Fixed) SigmoidSlice(v []fixed.Value) fixed.Kernel { return f.a.SigmoidSlice(v, f.plan) }

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
