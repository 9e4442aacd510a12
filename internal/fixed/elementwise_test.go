package fixed

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// elementwiseScales are the scales the elementwise kernels are checked at:
// the paper's, a power of two, LevelMixed's narrow scale and an odd one,
// where no rounding is a tie.
var elementwiseScales = []int64{DefaultScale, 1 << 12, narrowScale, 999_983}

// sigmoidPLAN is the PLAN sigmoid activation.NewFixed builds at a's scale.
func sigmoidPLAN(a Arith) *PLAN {
	q := a.FromFloat
	return &PLAN{
		Break:     [3]Value{a.One(), q(2.375), a.FromInt(5)},
		Slope:     [4]Value{q(0.25), q(0.125), q(0.03125), 0},
		Intercept: [4]Value{q(0.5), q(0.625), q(0.84375), a.One()},
	}
}

// elementwiseOp is one elementwise operation on operands a, b, c, d of
// equal length: its entry point, its vector kernel run directly, its scalar
// reference for one element, and its guard written out in Go. Ops that
// take fewer operands ignore the rest.
type elementwiseOp struct {
	name    string
	entry   func(a Arith, dst, x, y, u, w []Value) Kernel
	vector  func(a Arith, dst, x, y, u, w []Value) bool
	scalar  func(a Arith, x, y, u, w Value) Value
	admits  func(a Arith, x, y, u, w Value) bool
	inPlace bool // the op activates dst in place from x
}

// productAdmitted is the product guard written out from its derivation:
// the wrapped x·y, as Mul computes it, satisfies |x·y| + S ≤ 2^52.
func productAdmitted(a Arith, x, y Value) bool {
	p := magnitude(x * y)
	return p <= 1<<52 && p+uint64(a.scale) <= 1<<52
}

// softsignAdmitted is the softsign guard written out from its derivation:
// |x|·S + |x| + S ≤ 2^52, in 128-bit arithmetic, so x·S and |x| + S
// cannot wrap and |x·S| ≤ 2^52 − (|x| + S).
func softsignAdmitted(a Arith, x Value) bool {
	hi, lo := bits.Mul64(magnitude(x), uint64(a.scale)+1)
	return hi == 0 && lo <= 1<<52 && lo+uint64(a.scale) <= 1<<52
}

// elementwiseOps returns the four operations, sigmoid on plan.
func elementwiseOps(plan *PLAN) []elementwiseOp {
	return []elementwiseOp{
		{
			name:  "sigmoid",
			entry: func(a Arith, dst, _, _, _, _ []Value) Kernel { return a.SigmoidSlice(dst, plan) },
			vector: func(a Arith, dst, _, _, _, _ []Value) bool {
				return sigmoidAVX512(dst, plan, a.scale, a.narrowBound())
			},
			scalar: func(a Arith, x, _, _, _ Value) Value { return a.Sigmoid(x, plan) },
			admits: func(a Arith, x, _, _, _ Value) bool {
				ax := a.Abs(x)
				k := b2i(ax >= plan.Break[0]) + b2i(ax >= plan.Break[1]) + b2i(ax >= plan.Break[2])
				return productAdmitted(a, plan.Slope[k&3], ax)
			},
			inPlace: true,
		},
		{
			name:    "softsign",
			entry:   func(a Arith, dst, _, _, _, _ []Value) Kernel { return a.SoftsignSlice(dst) },
			vector:  func(a Arith, dst, _, _, _, _ []Value) bool { return softsignAVX512(dst, a.scale, a.softsignBound) },
			scalar:  func(a Arith, x, _, _, _ Value) Value { return a.Softsign(x) },
			admits:  func(a Arith, x, _, _, _ Value) bool { return softsignAdmitted(a, x) },
			inPlace: true,
		},
		{
			name:  "mul",
			entry: func(a Arith, dst, x, y, _, _ []Value) Kernel { return a.MulSlice(dst, x, y) },
			vector: func(a Arith, dst, x, y, _, _ []Value) bool {
				return mulAVX512(dst, x, y, float64(a.scale), a.narrowBound())
			},
			scalar: func(a Arith, x, y, _, _ Value) Value { return a.Mul(x, y) },
			admits: func(a Arith, x, y, _, _ Value) bool { return productAdmitted(a, x, y) },
		},
		{
			name:  "mul-add",
			entry: func(a Arith, dst, x, y, u, w []Value) Kernel { return a.MulAddSlice(dst, x, y, u, w) },
			vector: func(a Arith, dst, x, y, u, w []Value) bool {
				return mulAddAVX512(dst, x, y, u, w, float64(a.scale), a.narrowBound())
			},
			scalar: func(a Arith, x, y, u, w Value) Value { return a.Mul(x, y) + a.Mul(u, w) },
			admits: func(a Arith, x, y, u, w Value) bool { return productAdmitted(a, x, y) && productAdmitted(a, u, w) },
		},
	}
}

// checkElementwise runs op over the operands x, y, u, w (equal lengths)
// and reports whether its vector kernel ran. The vector kernel, called
// directly where the CPU has it, must admit the call exactly when op.admits
// holds for every element; when it admits, it must write the scalar
// reference's results, and when it refuses it must write nothing. The entry
// point must always write the scalar results and report KernelVector
// exactly when the vector kernel can run and admits. The in-place ops read
// x and work on a copy of it.
func checkElementwise(tb testing.TB, a Arith, op elementwiseOp, x, y, u, w []Value) bool {
	tb.Helper()
	n := len(x)
	want := make([]Value, n)
	admitted := true
	for i := range x {
		want[i] = op.scalar(a, x[i], y[i], u[i], w[i])
		admitted = admitted && op.admits(a, x[i], y[i], u[i], w[i])
	}
	fresh := func() []Value {
		if op.inPlace {
			return slices.Clone(x)
		}
		const sentinel = Value(-0x5a5a5a5a5a5a5a5b)
		dst := make([]Value, n)
		for i := range dst {
			dst[i] = sentinel
		}
		return dst
	}
	// One spare element past the end catches a store outside the mask.
	spare := func(v []Value) []Value { return append(v, 0x1234)[:n] }
	if hasAVX512 {
		dst := spare(fresh())
		before := slices.Clone(dst)
		ok := op.vector(a, dst, x, y, u, w)
		if ok != admitted {
			tb.Fatalf("%s scale %d, n %d: vector kernel admits %v, guard says %v (x %v, y %v, u %v, w %v)", op.name, a.scale, n, ok, admitted, x, y, u, w)
		}
		if !ok {
			want = before
		}
		for i, got := range dst {
			if got != want[i] {
				tb.Fatalf("%s scale %d, n %d, admitted %v: element %d = %d, want %d (x %d, y %d, u %d, w %d)", op.name, a.scale, n, ok, i, got, want[i], x[i], y[i], u[i], w[i])
			}
		}
		if dst[:n+1][n] != 0x1234 {
			tb.Fatalf("%s scale %d, n %d: vector kernel wrote past the end", op.name, a.scale, n)
		}
		if !ok {
			for i := range want {
				want[i] = op.scalar(a, x[i], y[i], u[i], w[i])
			}
		}
	}
	dst := spare(fresh())
	k := op.entry(a, dst, x, y, u, w)
	wantK := KernelGeneric
	if hasAVX512 && admitted {
		wantK = KernelVector
	}
	if k != wantK {
		tb.Fatalf("%s scale %d, n %d: entry point ran %s, want %s (AVX-512 %v, admitted %v)", op.name, a.scale, n, k, wantK, hasAVX512, admitted)
	}
	for i, got := range dst {
		if got != want[i] {
			tb.Fatalf("%s scale %d, n %d, kernel %s: element %d = %d, want %d (x %d, y %d, u %d, w %d)", op.name, a.scale, n, k, i, got, want[i], x[i], y[i], u[i], w[i])
		}
	}
	if dst[:n+1][n] != 0x1234 {
		tb.Fatalf("%s scale %d, n %d: entry point wrote past the end", op.name, a.scale, n)
	}
	return k == KernelVector
}

// logElementwiseKernels logs which kernels the elementwise entry points can
// pick on this CPU.
func logElementwiseKernels(tb testing.TB) {
	tb.Helper()
	if hasAVX512 {
		tb.Logf("elementwise kernels on this CPU: %s (sigmoidAVX512, softsignAVX512, mulAVX512, mulAddAVX512) where the guard admits the call, else %s", KernelVector, KernelGeneric)
	} else {
		tb.Logf("elementwise kernel on this CPU: %s only; CPU lacks AVX512F/AVX512DQ or OS-enabled ZMM state, so the vector legs do not run", KernelGeneric)
	}
}

// elementwiseTargets returns the values the elementwise boundary test
// feeds each kernel at a's scale: the rounding boundaries ±(k·S ± ⌊S/2⌋ +
// δ), δ ∈ {−1, 0, 1}, up to B (boundaryTargets), each PLAN breakpoint ±1
// with both signs, 0 and the int64 extremes.
func elementwiseTargets(a Arith, rng *rand.Rand) []Value {
	xs := append(boundaryTargets(a, rng), 0, 1, -1, math.MinInt64, math.MinInt64+1, math.MaxInt64)
	for _, b := range sigmoidPLAN(a).Break {
		for d := Value(-1); d <= 1; d++ {
			xs = append(xs, b+d, -(b + d))
		}
	}
	return xs
}

// softsignTargets returns softsign inputs whose quotient x·S/(|x| + S) sits
// on or next to a rounding boundary m + 1/2: every x up to 2^21 whose
// remainder r = x·S mod (x + S) has |2r − (x + S)| ≤ 2, and for a sample of
// m up to the guard's limit the three integers nearest the real x* with
// x*·S/(x* + S) = m + 1/2, with both signs. They stop at softsignLimit.
func softsignTargets(a Arith, rng *rand.Rand) []Value {
	s, lim := a.scale, int64(softsignLimit(a.scale))
	var xs []Value
	for x := int64(1); x <= min(lim, 1<<21); x++ {
		d := x + s
		if r := x * s % d; 2*r-d >= -2 && 2*r-d <= 2 {
			xs = append(xs, x, -x)
		}
	}
	mTop := float64(s) * float64(lim) / float64(lim+s)
	for i := 0; i < 2000; i++ {
		m := math.Floor(mTop * (1 - math.Pow(rng.Float64(), 4)))
		if i < 20 {
			m = math.Floor(mTop) - float64(i)
		}
		xStar := (m + 0.5) * float64(s) / (float64(s) - m - 0.5)
		for d := -1.0; d <= 1; d++ {
			if x := int64(math.Round(xStar + d)); x >= 0 && x <= lim {
				xs = append(xs, x, -x)
			}
		}
	}
	return append(xs, lim, -lim, lim-1, -(lim - 1))
}

// TestElementwiseKernelBoundaries checks each elementwise kernel element by
// element at the rounding boundaries and breakpoints of elementwiseTargets
// (and, for softsign, softsignTargets), at MinInt64, and one step either
// side of every guard, at each scale in elementwiseScales. Each value runs
// as its own call, so every admitted one takes the vector kernel, and as
// part of 8- and 13-element calls mixing admitted and refused values.
func TestElementwiseKernelBoundaries(t *testing.T) {
	logElementwiseKernels(t)
	for _, scale := range elementwiseScales {
		a := MustNew(scale)
		rng := rand.New(rand.NewSource(scale))
		targets := elementwiseTargets(a, rng)
		b := Value(a.narrowBound())
		lim := Value(softsignLimit(scale))
		one := func(n int) []Value {
			v := make([]Value, n)
			for i := range v {
				v[i] = 1
			}
			return v
		}
		// edgePLAN has one segment below MaxInt64, slope 3: its products
		// 3·|x| meet B between ⌊B/3⌋ and ⌊B/3⌋ + 1.
		edgePLAN := &PLAN{Break: [3]Value{math.MaxInt64, math.MaxInt64, math.MaxInt64}, Slope: [4]Value{3}, Intercept: [4]Value{7, 0, 0, a.One()}}
		edge := elementwiseOps(edgePLAN)[0]
		edge.name = "sigmoid on a slope-3 PLAN"
		type guardCase struct {
			x, y     Value
			admitted bool
		}
		guards := map[string][]guardCase{
			"softsign": {{lim, 1, true}, {-lim, 1, true}, {lim + 1, 1, false}, {-(lim + 1), 1, false}},
			"mul":      {{b, 1, true}, {-b, 1, true}, {b + 1, 1, false}, {-(b + 1), 1, false}, {1, -(b + 1), false}},
			"mul-add":  {{b, 1, true}, {-b, 1, true}, {b + 1, 1, false}, {-(b + 1), 1, false}, {1, -(b + 1), false}},
			"sigmoid":  {{math.MinInt64, 0, magnitude(sigmoidPLAN(a).Slope[0]*math.MinInt64) <= uint64(b)}},
			edge.name:  {{b / 3, 0, true}, {-(b / 3), 0, true}, {b/3 + 1, 0, false}, {-(b/3 + 1), 0, false}},
		}
		for _, op := range append(elementwiseOps(sigmoidPLAN(a)), edge) {
			xs := targets
			if op.name == "softsign" {
				xs = append(slices.Clone(targets), softsignTargets(a, rng)...)
			}
			runs := map[bool]int{}
			for _, g := range guards[op.name] {
				x, y := []Value{g.x}, []Value{g.y}
				u, w := []Value{1}, []Value{1}
				if op.name == "mul-add" && rng.Intn(2) == 0 {
					x, y, u, w = u, w, x, y // the guard on the second product
				}
				if op.admits(a, x[0], y[0], u[0], w[0]) != g.admitted {
					t.Fatalf("%s scale %d: guard on %d·%d admits %v, want %v", op.name, scale, g.x, g.y, !g.admitted, g.admitted)
				}
				runs[checkElementwise(t, a, op, x, y, u, w)]++
			}
			for _, x := range xs {
				y, u, w := one(1), one(1), []Value{Value(rng.Int63n(2*scale+1) - scale)}
				runs[checkElementwise(t, a, op, []Value{x}, y, u, w)]++
			}
			for lo := 0; lo < len(xs); lo += 13 {
				for _, n := range []int{8, 13} {
					x := xs[lo:min(lo+n, len(xs))]
					ys := make([]Value, len(x))
					for i := range ys {
						ys[i] = Value(rng.Intn(3) - 1)
					}
					checkElementwise(t, a, op, x, one(len(x)), ys, slices.Clone(x))
				}
			}
			// The sigmoid PLAN's own products never pass B at these
			// scales (Slope[0]·MinInt64 wraps to 0 where Slope[0] is
			// even), so its refused side is reached through edgePLAN.
			if hasAVX512 && (runs[true] == 0 || runs[false] == 0 && op.name != "sigmoid") {
				t.Errorf("%s scale %d: vector kernel ran on %d calls and was refused on %d; both sides of its guard must be reached", op.name, scale, runs[true], runs[false])
			}
		}
	}
}

// drawElementwise returns four n-element operand slices. Each element is
// drawn from one of the modes: small values (|v| < 8S, the hidden state's
// range, admitted by every guard), values at or one step past a guard
// (±B, ±(B+1), ±softsignLimit, ±(softsignLimit+1)), MinInt64, or full-range
// int64. A refused element makes its whole call scalar, so mixing modes
// covers calls on both sides of the guards.
func drawElementwise(rng *rand.Rand, a Arith, n int, refuseOdds int) (x, y, u, w []Value) {
	b, lim := Value(a.narrowBound()), Value(softsignLimit(a.scale))
	edges := []Value{b, b + 1, lim, lim + 1, math.MinInt64}
	draw := func() Value {
		if refuseOdds > 0 && rng.Intn(refuseOdds) == 0 {
			if rng.Intn(2) == 0 {
				return Value(rng.Uint64())
			}
			v := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				v = -v
			}
			return v
		}
		return rng.Int63n(16*a.scale+1) - 8*a.scale
	}
	ops := make([][]Value, 4)
	for i := range ops {
		ops[i] = make([]Value, n)
		for j := range ops[i] {
			ops[i][j] = draw()
		}
	}
	return ops[0], ops[1], ops[2], ops[3]
}

// TestElementwiseKernelsAgree checks every elementwise operation on every
// length 0-40, which covers each len%8 tail with 0-5 full chunks, with all
// elements admitted and with a few refused, at each scale in
// elementwiseScales.
func TestElementwiseKernelsAgree(t *testing.T) {
	logElementwiseKernels(t)
	if !hasAVX512 {
		t.Log("the vector legs are skipped; only the scalar loops are checked")
	}
	rng := rand.New(rand.NewSource(27))
	runs := map[string]int{}
	for _, scale := range elementwiseScales {
		a := MustNew(scale)
		for _, op := range elementwiseOps(sigmoidPLAN(a)) {
			for n := 0; n <= 40; n++ {
				for _, odds := range []int{0, 3 * (n + 1)} {
					x, y, u, w := drawElementwise(rng, a, n, odds)
					if checkElementwise(t, a, op, x, y, u, w) {
						runs[op.name]++
					}
				}
			}
		}
	}
	t.Logf("calls that took %s, per operation: %v", KernelVector, runs)
}

// FuzzElementwiseKernelsAgree is TestElementwiseKernelsAgree on fuzzed
// lengths (up to 255, so every tail length 0-7), seeds, scales and odds of
// a refused element (refuse 0: none). The vector legs run only where the
// CPU supports them.
func FuzzElementwiseKernelsAgree(f *testing.F) {
	f.Add(uint8(96), int64(1), uint8(0), uint8(0))
	f.Add(uint8(32), int64(2), uint8(1), uint8(40))
	f.Add(uint8(7), int64(3), uint8(2), uint8(3))
	f.Add(uint8(13), int64(4), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, scaleSel, refuse uint8) {
		a := MustNew(elementwiseScales[int(scaleSel)%len(elementwiseScales)])
		rng := rand.New(rand.NewSource(seed))
		x, y, u, w := drawElementwise(rng, a, int(n), int(refuse))
		for _, op := range elementwiseOps(sigmoidPLAN(a)) {
			checkElementwise(t, a, op, x, y, u, w)
		}
	})
}

// TestElementwiseLengthMismatch pins the panics of MulSlice and
// MulAddSlice on operands of different lengths.
func TestElementwiseLengthMismatch(t *testing.T) {
	a := Default
	for name, call := range map[string]func(){
		"mul": func() { a.MulSlice(make([]Value, 3), make([]Value, 3), make([]Value, 2)) },
		"mul-add": func() {
			a.MulAddSlice(make([]Value, 3), make([]Value, 3), make([]Value, 3), make([]Value, 4), make([]Value, 3))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on a length mismatch", name)
				}
			}()
			call()
		}()
	}
}
