package activation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/kfrida1/csdinf/internal/fixed"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{Sigmoid, "sigmoid"},
		{Tanh, "tanh"},
		{Softsign, "softsign"},
		{Identity, "identity"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestKindFunc(t *testing.T) {
	for _, k := range []Kind{Sigmoid, Tanh, Softsign, Identity} {
		f, err := k.Func()
		if err != nil {
			t.Fatalf("%v.Func(): %v", k, err)
		}
		if f == nil {
			t.Fatalf("%v.Func() returned nil func", k)
		}
	}
	if _, err := Kind(0).Func(); err == nil {
		t.Error("Kind(0).Func() expected error")
	}
}

func TestSigmoidValues(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{0, 0.5},
		{100, 1},
		{-100, 0},
	}
	for _, tt := range tests {
		if got := SigmoidF(tt.x); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("SigmoidF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestSoftsignValues(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{0, 0},
		{1, 0.5},
		{-1, -0.5},
		{3, 0.75},
		{-3, -0.75},
	}
	for _, tt := range tests {
		if got := SoftsignF(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("SoftsignF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestSoftsignSimilarToTanh(t *testing.T) {
	// The paper's justification: same S-shape and asymptotes. Verify the two
	// agree in sign, bound, and monotonic ordering over a grid.
	for x := -6.0; x <= 6.0; x += 0.25 {
		s, th := SoftsignF(x), math.Tanh(x)
		if math.Signbit(s) != math.Signbit(th) && x != 0 {
			t.Errorf("sign mismatch at %v: softsign %v tanh %v", x, s, th)
		}
		if math.Abs(s) >= 1 {
			t.Errorf("softsign(%v) = %v escapes (-1, 1)", x, s)
		}
	}
}

func TestDerivatives(t *testing.T) {
	// Numeric differentiation cross-check.
	const h = 1e-6
	for _, k := range []Kind{Sigmoid, Tanh, Softsign, Identity} {
		f, err := k.Func()
		if err != nil {
			t.Fatal(err)
		}
		d, err := k.Derivative()
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{-2, -0.5, 0.1, 1.7} {
			numeric := (f(x+h) - f(x-h)) / (2 * h)
			var analytic float64
			switch k {
			case Softsign, Identity:
				analytic = d(x) // argument convention: pre-activation
			default:
				analytic = d(f(x)) // argument convention: output
			}
			if math.Abs(numeric-analytic) > 1e-4 {
				t.Errorf("%v'(%v): numeric %v, analytic %v", k, x, numeric, analytic)
			}
		}
	}
	if _, err := Kind(0).Derivative(); err == nil {
		t.Error("Kind(0).Derivative() expected error")
	}
}

func TestFixedSoftsignMatchesFloat(t *testing.T) {
	fa := NewFixed(fixed.Default)
	for _, x := range []float64{-10, -1, -0.5, 0, 0.5, 1, 3.7, 42} {
		got := fixed.Default.ToFloat(fa.Softsign(fixed.Default.FromFloat(x)))
		want := SoftsignF(x)
		if math.Abs(got-want) > 2e-6 {
			t.Errorf("fixed softsign(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestFixedSigmoidPLANError(t *testing.T) {
	fa := NewFixed(fixed.Default)
	worst := 0.0
	for x := -8.0; x <= 8.0; x += 0.01 {
		got := fixed.Default.ToFloat(fa.Sigmoid(fixed.Default.FromFloat(x)))
		err := math.Abs(got - SigmoidF(x))
		if err > worst {
			worst = err
		}
	}
	if worst > PLANMaxError+1e-4 {
		t.Fatalf("PLAN sigmoid worst error %v exceeds documented bound %v", worst, PLANMaxError)
	}
}

func TestFixedTanhRange(t *testing.T) {
	fa := NewFixed(fixed.Default)
	for x := -6.0; x <= 6.0; x += 0.05 {
		got := fixed.Default.ToFloat(fa.Tanh(fixed.Default.FromFloat(x)))
		if got < -1.0-1e-6 || got > 1.0+1e-6 {
			t.Fatalf("fixed tanh(%v) = %v escapes [-1, 1]", x, got)
		}
		if math.Abs(got-math.Tanh(x)) > 2*PLANMaxError+1e-3 {
			t.Fatalf("fixed tanh(%v) = %v, want near %v", x, got, math.Tanh(x))
		}
	}
}

func TestFixedApply(t *testing.T) {
	fa := NewFixed(fixed.Default)
	x := fixed.Default.FromFloat(0.3)
	for _, k := range []Kind{Sigmoid, Tanh, Softsign, Identity} {
		if _, err := fa.Apply(k, x); err != nil {
			t.Errorf("Apply(%v): %v", k, err)
		}
	}
	if _, err := fa.Apply(Kind(0), x); err == nil {
		t.Error("Apply(Kind(0)) expected error")
	}
	if got, err := fa.Apply(Identity, x); err != nil || got != x {
		t.Errorf("Apply(Identity) = %v, %v; want %v, nil", got, err, x)
	}
}

// Property: fixed-point sigmoid stays in [0, 1] and is monotone
// non-decreasing.
func TestPropFixedSigmoidRangeMonotone(t *testing.T) {
	fa := NewFixed(fixed.Default)
	one := fixed.Default.One()
	f := func(a, b int32) bool {
		x, y := fixed.Value(a)*100, fixed.Value(b)*100
		sx, sy := fa.Sigmoid(x), fa.Sigmoid(y)
		if sx < 0 || sx > one || sy < 0 || sy > one {
			return false
		}
		if x <= y {
			return sx <= sy
		}
		return sy <= sx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fixed-point softsign is odd: softsign(-x) == -softsign(x).
func TestPropFixedSoftsignOdd(t *testing.T) {
	fa := NewFixed(fixed.Default)
	f := func(a int32) bool {
		x := fixed.Value(a) * 1000
		return fa.Softsign(-x) == -fa.Softsign(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fixed-point softsign magnitude strictly below 1.
func TestPropFixedSoftsignBounded(t *testing.T) {
	fa := NewFixed(fixed.Default)
	one := fixed.Default.One()
	f := func(a int64) bool {
		v := fa.Softsign(a)
		return v > -one && v < one || a == 0 && v == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// benchGates returns a seeded vector of 4H gate pre-activations for the
// paper's H = 32, spread over [-6, 6] so it spans all four PLAN segments and
// both signs in an order the branch predictor cannot learn.
func benchGates() []fixed.Value {
	rng := rand.New(rand.NewSource(1))
	xs := make([]fixed.Value, 4*32)
	for i := range xs {
		xs[i] = fixed.Default.FromFloat(rng.Float64()*12 - 6)
	}
	return xs
}

// benchSlice times the slice form act and the loop of one-element forms
// one over benchGates, restoring the input before each pass, and reports
// ns per element. The slice leg logs the kernel it ran; on this input it is
// fixed.KernelVector wherever the CPU has AVX-512.
func benchSlice(b *testing.B, act func([]fixed.Value) fixed.Kernel, one func(fixed.Value) fixed.Value) {
	in := benchGates()
	v := make([]fixed.Value, len(in))
	for _, leg := range []struct {
		name string
		run  func()
	}{
		{"slice", func() { act(v) }},
		{"scalar", func() {
			for j, x := range v {
				v[j] = one(x)
			}
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			if leg.name == "slice" {
				copy(v, in)
				b.Logf("kernel %s", act(v))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(v, in)
				leg.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in)), "ns/elem")
		})
	}
}

func BenchmarkFixedSigmoidSlice(b *testing.B) {
	f := NewFixed(fixed.Default)
	benchSlice(b, f.SigmoidSlice, f.Sigmoid)
}

func BenchmarkFixedSoftsignSlice(b *testing.B) {
	f := NewFixed(fixed.Default)
	benchSlice(b, f.SoftsignSlice, f.Softsign)
}

func BenchmarkFloatTanh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = math.Tanh(0.7)
	}
}
