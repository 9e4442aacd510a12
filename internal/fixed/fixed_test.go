package fixed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	tests := []struct {
		name    string
		scale   int64
		wantErr bool
	}{
		{name: "paper scale", scale: 1_000_000},
		{name: "unit scale", scale: 1},
		{name: "power of two", scale: 1 << 16},
		{name: "zero", scale: 0, wantErr: true},
		{name: "negative", scale: -5, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := New(tt.scale)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d) error = %v, wantErr %v", tt.scale, err, tt.wantErr)
			}
			if err == nil && a.Scale() != tt.scale {
				t.Errorf("Scale() = %d, want %d", a.Scale(), tt.scale)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestFromFloatRounding(t *testing.T) {
	a := Default
	tests := []struct {
		f    float64
		want Value
	}{
		{0, 0},
		{1, 1_000_000},
		{-1, -1_000_000},
		{0.0000005, 1},          // rounds half away from zero
		{-0.0000005, -1},        // symmetric for negatives
		{0.0000004, 0},          // below half a ulp truncates
		{0.123456789, 123_457},  // nearest
		{-0.123456789, -123457}, // nearest, negative
		{3.25, 3_250_000},
	}
	for _, tt := range tests {
		if got := a.FromFloat(tt.f); got != tt.want {
			t.Errorf("FromFloat(%v) = %d, want %d", tt.f, got, tt.want)
		}
	}
}

func TestFromFloatCheckedOverflow(t *testing.T) {
	a := Default
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e40, -1e40} {
		if _, err := a.FromFloatChecked(f); err == nil {
			t.Errorf("FromFloatChecked(%v) expected overflow error", f)
		}
	}
	if v, err := a.FromFloatChecked(2.5); err != nil || v != 2_500_000 {
		t.Errorf("FromFloatChecked(2.5) = %d, %v; want 2500000, nil", v, err)
	}
}

func TestMulMatchesPaperCorrection(t *testing.T) {
	a := Default
	// 1.5 * 2.0 = 3.0: raw product is at scale 1e12 and must be corrected.
	x, y := a.FromFloat(1.5), a.FromFloat(2.0)
	if got := a.Mul(x, y); got != a.FromFloat(3.0) {
		t.Fatalf("Mul = %d, want %d", got, a.FromFloat(3.0))
	}
	// Small weights, the common case in this model.
	x, y = a.FromFloat(0.001), a.FromFloat(0.002)
	if got, want := a.ToFloat(a.Mul(x, y)), 0.000002; math.Abs(got-want) > 1e-6 {
		t.Fatalf("Mul small = %v, want %v", got, want)
	}
}

func TestDiv(t *testing.T) {
	a := Default
	got, err := a.Div(a.FromFloat(3.0), a.FromFloat(1.5))
	if err != nil {
		t.Fatalf("Div returned error: %v", err)
	}
	if want := a.FromFloat(2.0); got != want {
		t.Fatalf("Div = %d, want %d", got, want)
	}
	if _, err := a.Div(a.One(), 0); err == nil {
		t.Fatal("Div by zero: expected error")
	}
}

func TestDotAgainstFloatReference(t *testing.T) {
	a := Default
	xs := []float64{0.5, -0.25, 0.125, 1.5, -2.0}
	ys := []float64{1.0, 4.0, -8.0, 0.5, 0.25}
	want := 0.0
	for i := range xs {
		want += xs[i] * ys[i]
	}
	got := a.ToFloat(a.Dot(a.QuantizeSlice(xs), a.QuantizeSlice(ys)))
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("Dot = %v, want %v", got, want)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Default.Dot(make([]Value, 2), make([]Value, 3))
}

func TestQuantizeDequantizeSlice(t *testing.T) {
	a := Default
	in := []float64{0.1, -0.2, 0.333333, 12.75}
	out := a.DequantizeSlice(a.QuantizeSlice(in))
	for i := range in {
		if math.Abs(out[i]-in[i]) > a.MaxAbsError() {
			t.Errorf("round trip [%d]: |%v - %v| > %v", i, out[i], in[i], a.MaxAbsError())
		}
	}
}

func TestMaxAbsError(t *testing.T) {
	if got, want := Default.MaxAbsError(), 0.5/1e6; got != want {
		t.Fatalf("MaxAbsError = %v, want %v", got, want)
	}
}

// Property: quantization error is bounded by half a ulp at the scale.
func TestPropQuantizationErrorBounded(t *testing.T) {
	a := Default
	f := func(mantissa int32) bool {
		v := float64(mantissa) / 1024 // range ±~2e6, comfortably in-scale
		q := a.ToFloat(a.FromFloat(v))
		// Allow for float64 representation error at large magnitudes.
		return math.Abs(q-v) <= a.MaxAbsError()+math.Abs(v)*1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: addition is exact (no rescale), so it commutes and associates.
func TestPropAddCommutesAssociates(t *testing.T) {
	a := Default
	f := func(x, y, z int32) bool {
		vx, vy, vz := Value(x), Value(y), Value(z)
		if a.Add(vx, vy) != a.Add(vy, vx) {
			return false
		}
		return a.Add(a.Add(vx, vy), vz) == a.Add(vx, a.Add(vy, vz))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: multiplication commutes even with rounding.
func TestPropMulCommutes(t *testing.T) {
	a := Default
	f := func(x, y int32) bool {
		return a.Mul(Value(x), Value(y)) == a.Mul(Value(y), Value(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mul result differs from the float product by at most one ulp at
// the scale (rounding of one product).
func TestPropMulErrorBounded(t *testing.T) {
	a := Default
	f := func(xm, ym int16) bool {
		x := float64(xm) / 256 // weights are small in this model
		y := float64(ym) / 256
		got := a.ToFloat(a.Mul(a.FromFloat(x), a.FromFloat(y)))
		// Two quantizations plus one rounded rescale.
		bound := math.Abs(x)*a.MaxAbsError() + math.Abs(y)*a.MaxAbsError() + 2.0/float64(a.Scale())
		return math.Abs(got-x*y) <= bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: negation flips sign through multiplication.
func TestPropMulNegation(t *testing.T) {
	a := Default
	f := func(x, y int32) bool {
		return a.Mul(a.Neg(Value(x)), Value(y)) == a.Neg(a.Mul(Value(x), Value(y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundedDiv(t *testing.T) {
	tests := []struct {
		num, den, want int64
	}{
		{10, 3, 3},
		{11, 3, 4},   // 3.67 rounds to 4
		{-11, 3, -4}, // symmetric
		{15, 10, 2},  // half away from zero
		{-15, 10, -2},
		{14, 10, 1},
		{0, 7, 0},
	}
	for _, tt := range tests {
		if got := roundedDiv(tt.num, tt.den); got != tt.want {
			t.Errorf("roundedDiv(%d, %d) = %d, want %d", tt.num, tt.den, got, tt.want)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	a := Default
	x, y := a.FromFloat(0.123), a.FromFloat(-0.456)
	for i := 0; i < b.N; i++ {
		_ = a.Mul(x, y)
	}
}

func BenchmarkDot40(b *testing.B) {
	a := Default
	xs := make([]Value, 40)
	ys := make([]Value, 40)
	for i := range xs {
		xs[i] = a.FromFloat(float64(i) * 0.01)
		ys[i] = a.FromFloat(float64(40-i) * 0.01)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Dot(xs, ys)
	}
}

// TestRescaleMatchesRoundedDiv pins the constant-divisor rescale to the
// generic roundedDiv it replaces at DefaultScale: every raw value within two
// units of a rounding boundary (±S/2) or of a multiple of S, across positive
// and negative quotients, and every raw value within 2·S of the int64 limits,
// where the rounding bias wraps.
func TestRescaleMatchesRoundedDiv(t *testing.T) {
	const s = DefaultScale
	a := Default
	check := func(raw int64) {
		t.Helper()
		if got, want := a.rescale(raw), roundedDiv(raw, s); got != want {
			t.Fatalf("rescale(%d) = %d, roundedDiv = %d", raw, got, want)
		}
	}
	var ds []int64
	for d := int64(-2); d <= 2; d++ {
		ds = append(ds, -s/2+d, s/2+d)
	}
	ds = append(ds, 0, 1, -1)
	var ks []int64
	for k := int64(-1000); k <= 1000; k++ {
		ks = append(ks, k)
	}
	for k := int64(1); k < math.MaxInt64/s; k *= 3 {
		ks = append(ks, k, -k)
	}
	ks = append(ks, math.MaxInt64/s-1, math.MinInt64/s+1)
	for _, k := range ks {
		for _, d := range ds {
			check(k*s + d)
		}
	}
	for i := int64(0); i <= 2*s; i++ {
		check(math.MinInt64 + i)
		check(math.MaxInt64 - i)
	}
}

// TestMatVecMatchesDot checks MatVec against one Dot per row on random
// shapes (including rows and widths that are not multiples of four), at the
// default scale and at scales that take the generic rescale, with operands
// small enough to stay exact and large enough to wrap the accumulator.
func TestMatVecMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, scale := range []int64{DefaultScale, 1 << 12, 10_000} {
		a := MustNew(scale)
		for trial := 0; trial < 300; trial++ {
			rows, n := rng.Intn(14), rng.Intn(12)
			wrap := trial%5 == 0
			val := func() Value {
				if wrap {
					return Value(rng.Uint64())
				}
				return Value(rng.Int63n(4*scale) - 2*scale)
			}
			w := make([]Value, rows*n)
			for i := range w {
				w[i] = val()
			}
			x := make([]Value, n)
			for i := range x {
				x[i] = val()
			}
			dst := make([]Value, rows)
			a.MatVec(dst, NewMatrix(w, n), x)
			for j := range dst {
				if want := a.Dot(w[j*n:(j+1)*n], x); dst[j] != want {
					t.Fatalf("scale %d, %dx%d row %d: MatVec %d, Dot %d", scale, rows, n, j, dst[j], want)
				}
			}
		}
	}
}

// TestMatVecShapeMismatchPanics checks that NewMatrix panics on data that
// does not split into whole rows, and MatVec on a matrix whose shape does not
// match dst and x.
func TestMatVecShapeMismatchPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, tc := range []struct{ w, cols int }{{5, 3}, {16, 3}, {1, 0}, {0, -1}} {
		mustPanic(fmt.Sprintf("NewMatrix(%d values, %d cols)", tc.w, tc.cols), func() {
			NewMatrix(make([]Value, tc.w), tc.cols)
		})
	}
	for _, tc := range []struct{ rows, w, cols, n int }{
		{rows: 2, w: 6, cols: 3, n: 2},
		{rows: 4, w: 15, cols: 3, n: 3},
		{rows: 0, w: 3, cols: 3, n: 3},
		{rows: 1, w: 0, cols: 0, n: 1},
	} {
		mustPanic(fmt.Sprintf("MatVec(%d rows, %d weights in rows of %d, %d wide)", tc.rows, tc.w, tc.cols, tc.n), func() {
			Default.MatVec(make([]Value, tc.rows), NewMatrix(make([]Value, tc.w), tc.cols), make([]Value, tc.n))
		})
	}
}
