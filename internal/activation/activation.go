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
// conversion.
type planConsts struct {
	five, b2375        fixed.Value // segment breakpoints (|x| >= 1 is One)
	slope3, intercept3 fixed.Value // 2.375 <= |x| < 5
	slope2, intercept2 fixed.Value // 1 <= |x| < 2.375
	slope1, intercept1 fixed.Value // 0 <= |x| < 1
}

// NewFixed returns a fixed-point activation evaluator over arith a.
func NewFixed(a fixed.Arith) Fixed {
	return Fixed{a: a, plan: &planConsts{
		five:       a.FromInt(5),
		b2375:      a.FromFloat(2.375),
		slope3:     a.FromFloat(0.03125),
		intercept3: a.FromFloat(0.84375),
		slope2:     a.FromFloat(0.125),
		intercept2: a.FromFloat(0.625),
		slope1:     a.FromFloat(0.25),
		intercept1: a.FromFloat(0.5),
	}}
}

// Softsign computes x/(|x|+1) exactly in fixed point:
// (x*S) / (|x| + S) with rounding, where S is the scale. No approximation is
// involved; this is why the paper prefers softsign on hardware.
func (f Fixed) Softsign(x fixed.Value) fixed.Value {
	den := f.a.Add(f.a.Abs(x), f.a.One())
	// den >= S > 0, so Div cannot fail; compute directly to stay in the
	// single-rounding regime.
	v, err := f.a.Div(x, den)
	if err != nil {
		// Unreachable: den >= One() > 0.
		panic("activation: softsign denominator zero")
	}
	return v
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
	neg := x < 0
	ax := f.a.Abs(x)
	one := f.a.One()
	c := f.plan
	var y fixed.Value
	switch {
	case ax >= c.five:
		y = one
	case ax >= c.b2375:
		y = f.a.Add(f.a.Mul(c.slope3, ax), c.intercept3)
	case ax >= one:
		y = f.a.Add(f.a.Mul(c.slope2, ax), c.intercept2)
	default:
		y = f.a.Add(f.a.Mul(c.slope1, ax), c.intercept1)
	}
	if neg {
		return f.a.Sub(one, y)
	}
	return y
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
