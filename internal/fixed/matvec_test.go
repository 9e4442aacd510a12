package fixed

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// rowSumKernels are the two kernels MatVec chooses between, with their raw
// four-row sums. The tests below run them directly, whatever this CPU
// dispatches to; the narrow one only on operands narrowExact admits.
var rowSumKernels = []struct {
	name Kernel
	sums func(dst, w, x []Value)
}{
	{KernelGeneric, rowSums4Generic},
	{KernelNarrow, rowSums4NarrowAVX512},
}

// kernelScales are the paper's scale and two that take the generic rescale.
var kernelScales = []int64{DefaultScale, 1 << 12, 10_000}

// narrowScale is kernels.NarrowScale, LevelMixed's gate-input scale.
const narrowScale = 100

// skipUnsupported skips the AVX-512 legs on a CPU that cannot run them.
func skipUnsupported(tb testing.TB, kernel Kernel) {
	tb.Helper()
	if kernel != KernelGeneric && !hasAVX512 {
		tb.Skip("CPU lacks AVX512F/AVX512DQ or OS-enabled ZMM state: the AVX-512 kernels cannot run here")
	}
}

// maxMagnitude returns the largest |v| in x.
func maxMagnitude(x []Value) uint64 {
	var m uint64
	for _, v := range x {
		m = max(m, magnitude(v))
	}
	return m
}

// guardSide names the guard that keeps (w, x) off the narrow kernel, or
// "narrow" when narrowExact admits them.
func guardSide(a Arith, w Matrix, x []Value) string {
	switch {
	case !w.fits32:
		return "weight over int32"
	case maxMagnitude(x) > math.MaxInt32:
		return "x over int32"
	case !a.narrowExact(w, x):
		return "sum bound over B"
	default:
		return "narrow"
	}
}

// checkKernel runs kernel over a rows×len(x) matrix w. Its raw sums must
// leave every full-block row equal to DotRaw's accumulator and write nothing
// to the rows%4 tail or past len(dst); run through matVec, every row must
// equal the per-row Dot, and so must the dispatched MatVec. The narrow
// kernel's raw sums are checked only when every operand fits int32, and its
// matVec only when narrowExact admits the operands.
func checkKernel(tb testing.TB, a Arith, kernel Kernel, sums func(dst, w, x []Value), rows int, w, x []Value) {
	tb.Helper()
	n := len(x)
	m := NewMatrix(w, n)
	narrow := kernel == KernelNarrow
	if !narrow || (m.fits32 && maxMagnitude(x) <= math.MaxInt32) {
		const sentinel = Value(-0x5a5a5a5a5a5a5a5b)
		raw := make([]Value, rows+1)
		for j := range raw {
			raw[j] = sentinel
		}
		sums(raw[:rows], w, x)
		full := rows &^ 3
		for j, got := range raw {
			want := sentinel
			if j < full {
				want, _ = a.DotRaw(w[j*n:(j+1)*n], x)
			}
			if got != want {
				tb.Fatalf("%s %dx%d: raw row %d = %d, want %d", kernel, rows, n, j, got, want)
			}
		}
	}
	dst := make([]Value, rows)
	if !narrow || a.narrowExact(m, x) {
		a.matVec(kernel, dst, w, x)
		for j, got := range dst {
			if want := a.Dot(w[j*n:(j+1)*n], x); got != want {
				tb.Fatalf("%s scale %d, %dx%d: row %d = %d, Dot %d", kernel, a.Scale(), rows, n, j, got, want)
			}
		}
	}
	a.MatVec(dst, m, x)
	for j, got := range dst {
		if want := a.Dot(w[j*n:(j+1)*n], x); got != want {
			tb.Fatalf("MatVec (%s) scale %d, %dx%d: row %d = %d, Dot %d", a.MatVecKernel(m, x), a.Scale(), rows, n, j, got, want)
		}
	}
}

// The operand modes drawOperands fills a matrix and a vector in.
const (
	modeRange  = iota // |v| < 2S: admitted by every guard
	modeWrap          // full-range int64: the sums wrap
	modeEdge32        // weights or x at ±(2^31−1), or all at ±2^31, the rest small
	modeBound         // aligned rows whose bound and sum sit one step either side of B
	numModes
)

// drawOperands fills a rows×n matrix and an n-vector in the given mode. The
// edge and bound modes straddle the narrow kernel's guards, so both sides of
// each run: modeEdge32 puts one operand side at the int32 edge, either just
// inside (2^31−1) or just outside (2^31), with the other side small enough
// to keep the sums under B; modeBound sets max|x| = X and fills rows with
// ±c, c = ⌊B/(n·X)⌋ + δ for δ ∈ {−1, 0, 1}, so the guard's product
// maxRowL1·X and the aligned rows' sums land just under or just over B.
func drawOperands(rng *rand.Rand, mode int, a Arith, rows, n int) (w, x []Value) {
	w, x = make([]Value, rows*n), make([]Value, n)
	fill := func(vs []Value, val func() Value) {
		for i := range vs {
			vs[i] = val()
		}
	}
	sign := func(v Value) Value {
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	switch mode {
	case modeRange:
		val := func() Value { return Value(rng.Int63n(4*a.scale) - 2*a.scale) }
		fill(w, val)
		fill(x, val)
	case modeWrap:
		val := func() Value { return Value(rng.Uint64()) }
		fill(w, val)
		fill(x, val)
	case modeEdge32:
		top := Value(math.MaxInt32 + rng.Intn(2))
		edge := func() Value {
			if rng.Intn(3) == 0 {
				return sign(top)
			}
			return Value(rng.Intn(1<<14) - 1<<13)
		}
		small := func() Value { return Value(rng.Intn(1<<14) - 1<<13) }
		if rng.Intn(2) == 0 {
			fill(w, edge)
			fill(x, small)
		} else {
			fill(w, small)
			fill(x, edge)
		}
	case modeBound:
		if n == 0 {
			break
		}
		bx := Value(1<<22 + rng.Int63n(math.MaxInt32-1<<22))
		fill(x, func() Value { return bx })
		c := Value(a.narrowBound()/uint64(n)/uint64(bx)) + Value(rng.Intn(3)-1)
		for r := 0; r < rows; r++ {
			row := w[r*n : (r+1)*n]
			switch rng.Intn(3) {
			case 0:
				fill(row, func() Value { return c })
			case 1:
				fill(row, func() Value { return -c })
			default:
				fill(row, func() Value { return rng.Int63n(2*c+1) - c })
			}
		}
	}
	return w, x
}

// TestMatVecKernelsAgree checks every kernel against per-row Dot on every
// shape up to 17 rows by 41 columns, which covers every n%8 tail and every
// rows%4 remainder, in every operand mode, at each scale in kernelScales. It
// requires each of the narrow kernel's guards to have turned operands away
// and the kernel to have run, so both sides of every guard are exercised.
func TestMatVecKernelsAgree(t *testing.T) {
	if hasAVX512 {
		t.Logf("MatVec kernels on this CPU: %s (rowSums4NarrowAVX512 + rescaleAVX512) where narrowExact holds, else %s (rowSums4Generic)", KernelNarrow, KernelGeneric)
	} else {
		t.Logf("MatVec kernel on this CPU: %s (rowSums4Generic)", KernelGeneric)
	}
	for _, k := range rowSumKernels {
		t.Run(string(k.name), func(t *testing.T) {
			skipUnsupported(t, k.name)
			rng := rand.New(rand.NewSource(11))
			sides := map[string]int{}
			for _, scale := range kernelScales {
				a := MustNew(scale)
				for rows := 0; rows <= 17; rows++ {
					for n := 0; n <= 41; n++ {
						for mode := 0; mode < numModes; mode++ {
							w, x := drawOperands(rng, mode, a, rows, n)
							sides[guardSide(a, NewMatrix(w, n), x)]++
							checkKernel(t, a, k.name, k.sums, rows, w, x)
						}
					}
				}
			}
			for _, side := range []string{"narrow", "weight over int32", "x over int32", "sum bound over B"} {
				if sides[side] == 0 {
					t.Errorf("no operands drawn on the %q side of the narrow kernel's guards: %v", side, sides)
				}
			}
		})
	}
}

// FuzzMatVecKernelsAgree is TestMatVecKernelsAgree on fuzzed shapes (up to
// 255×255), seeds, magnitudes and operand modes. Mode 0 draws operands of
// uniform bits shifted right by shift: shift 0 is full-range int64 that
// wraps, larger shifts draw smaller ones. Modes 1 and 2 are modeEdge32 and
// modeBound, which straddle the narrow kernel's int32 and sum-bound guards.
// The AVX-512 legs run only where the CPU supports them;
// FuzzFixedFastMatchesShadow in internal/kernels drives the dispatched
// MatVec from whole models.
func FuzzMatVecKernelsAgree(f *testing.F) {
	f.Add(uint8(17), uint8(41), int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(128), uint8(32), int64(2), uint8(30), uint8(1), uint8(0))
	f.Add(uint8(128), uint8(8), int64(3), uint8(40), uint8(2), uint8(0))
	f.Add(uint8(128), uint8(32), int64(4), uint8(0), uint8(0), uint8(1))
	f.Add(uint8(13), uint8(37), int64(5), uint8(0), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, rows, n uint8, seed int64, shift, scaleSel, mode uint8) {
		a := MustNew(kernelScales[int(scaleSel)%len(kernelScales)])
		rng := rand.New(rand.NewSource(seed))
		var w, x []Value
		switch mode % 3 {
		case 0:
			w, x = make([]Value, int(rows)*int(n)), make([]Value, n)
			for i := range w {
				w[i] = Value(rng.Uint64()) >> (shift % 64)
			}
			for i := range x {
				x[i] = Value(rng.Uint64()) >> (shift % 64)
			}
		case 1:
			w, x = drawOperands(rng, modeEdge32, a, int(rows), int(n))
		default:
			w, x = drawOperands(rng, modeBound, a, int(rows), int(n))
		}
		for _, k := range rowSumKernels {
			if k.name != KernelGeneric && !hasAVX512 {
				continue
			}
			checkKernel(t, a, k.name, k.sums, int(rows), w, x)
		}
	})
}

// boundaryTargets returns row sums on both sides of the rounding boundaries
// of scale S: ±(k·S ± ⌊S/2⌋ + δ) for δ ∈ {−1, 0, 1}, for k = 0..3, for the
// four largest k whose sums stay within B = narrowBound, and for a seeded
// sample of k between, uniform and log-uniform.
func boundaryTargets(a Arith, rng *rand.Rand) []int64 {
	s, half, b := a.scale, a.scale/2, int64(a.narrowBound())
	kmax := (b - half - 1) / s
	ks := []int64{0, 1, 2, 3, kmax, kmax - 1, kmax - 2, kmax - 3}
	for i := 0; i < 500; i++ {
		ks = append(ks, rng.Int63n(kmax+1), int64(math.Exp(rng.Float64()*math.Log(float64(kmax)))))
	}
	var out []int64
	for _, k := range ks {
		for _, h := range []int64{-half, half} {
			for d := int64(-1); d <= 1; d++ {
				if t := k*s + h + d; t >= 0 {
					out = append(out, t, -t)
				}
			}
		}
	}
	return out
}

// TestNarrowRoundingBoundaries checks the narrow kernel's float rescale at
// the rounding boundaries over the whole range B admits (the derivation is
// in DESIGN.md "Fixed-point hot path"), at every scale in kernelScales, at
// narrowScale and at the odd scale 999,983, where no sum is a tie and the
// gap below k + 1/2 is only 1/(2S). rescaleAVX512 must equal roundedDiv on
// each target sum, and the dispatched MatVec must equal per-row Dot on
// matrices whose rows sum to the targets, built so that narrowExact admits
// them: x is all X and each row is |t|/X split over four columns, with X = 1
// for sums up to 4·MaxInt32 and X = 2^20+1 above, where k moves by less
// than X to make X divide the sum.
func TestNarrowRoundingBoundaries(t *testing.T) {
	const cols, bigX = 4, 1<<20 + 1
	for _, scale := range append(append([]int64{}, kernelScales...), narrowScale, 999_983) {
		a := MustNew(scale)
		rng := rand.New(rand.NewSource(scale))
		targets := boundaryTargets(a, rng)

		if hasAVX512 {
			got := append([]Value(nil), targets...)
			rescaleAVX512(got, float64(scale))
			for i, sum := range targets {
				if want := roundedDiv(sum, scale); got[i] != want {
					t.Fatalf("scale %d: rescaleAVX512(%d) = %d, roundedDiv %d", scale, sum, got[i], want)
				}
			}
		}

		// sInv is S⁻¹ mod X, which exists: bigX = 17·61681 shares no factor
		// with any scale tested.
		sInv := new(big.Int).ModInverse(big.NewInt(scale%bigX), big.NewInt(bigX)).Int64()
		byX := map[int64][]Value{}
		for _, sum := range targets {
			x, mag := int64(1), sum
			if mag < 0 {
				mag = -mag
			}
			if mag > cols*math.MaxInt32 {
				// mag = k·S + r; move k to the nearest smaller k' (the
				// nearest larger one when k is too small) with k'·S + r ≡
				// 0 (mod X), i.e. k' ≡ -r·S⁻¹.
				k, r := mag/scale, mag%scale
				want := (bigX - r%bigX) * sInv % bigX
				if d := ((k-want)%bigX + bigX) % bigX; k >= d {
					k -= d
				} else {
					k += bigX - d
				}
				x, mag = bigX, (k*scale+r)/bigX
			}
			row := make([]Value, cols)
			for i := range row {
				if row[i] = mag / cols; int64(i) < mag%cols {
					row[i]++
				}
				if sum < 0 {
					row[i] = -row[i]
				}
			}
			byX[x] = append(byX[x], row...)
		}
		for x, w := range byX {
			xs := []Value{x, x, x, x}
			// 12 rows per call: one full 8-lane rescale chunk and a
			// masked 4-lane tail.
			for lo := 0; lo < len(w); lo += 12 * cols {
				blk := w[lo:min(lo+12*cols, len(w))]
				m := NewMatrix(blk, cols)
				if !a.narrowExact(m, xs) {
					t.Fatalf("scale %d: a boundary matrix (X = %d) is not admitted to the narrow kernel", scale, x)
				}
				dst := make([]Value, len(blk)/cols)
				a.MatVec(dst, m, xs)
				for j, got := range dst {
					if want := a.Dot(m.Row(j), xs); got != want {
						sum, _ := a.DotRaw(m.Row(j), xs)
						t.Fatalf("scale %d, X %d: row sum %d: MatVec %d, Dot %d", scale, x, sum, got, want)
					}
				}
			}
		}
	}
}

// TestMatVecKernelSelection pins which kernel MatVec picks at the paper's
// scale: the narrow one for operands inside every guard, up to a row sum of
// exactly B, and the generic one when a weight or an x is ±2^31 or when
// maxRowL1·max|x| exceeds B. narrowExact decides the same way on every CPU.
func TestMatVecKernelSelection(t *testing.T) {
	a := Default
	// B = 2^52 - 10^6 = 536862912 · 8388733, so a row of L1 536862912 against
	// an x of max 8388733 has a guard product, and an aligned sum, of exactly B.
	const l1, xB = 536_862_912, 8_388_733
	if l1*xB != a.narrowBound() {
		t.Fatalf("narrowBound = %d, want %d·%d", a.narrowBound(), l1, xB)
	}
	small := NewMatrix([]Value{1_000_000, -2_000_000, 3, 4}, 2)
	tiny := NewMatrix([]Value{1, 2, -3, 4}, 2)
	atB := NewMatrix([]Value{l1 - 7, 7, -1, 2}, 2)
	for _, tc := range []struct {
		name   string
		w      Matrix
		x      []Value
		narrow bool
	}{
		{"small operands", small, []Value{500_000, -1_000_000}, true},
		{"weights at ±(2^31-1)", NewMatrix([]Value{math.MaxInt32, 1, -math.MaxInt32, 0}, 2), []Value{-3, 1}, true},
		{"x at ±(2^31-1)", tiny, []Value{math.MaxInt32, -math.MaxInt32}, true},
		{"a weight of 2^31", NewMatrix([]Value{1 << 31, 1, 1, 1}, 2), []Value{1, 1}, false},
		{"a weight of -2^31", NewMatrix([]Value{1, -1 << 31, 1, 1}, 2), []Value{1, 1}, false},
		{"an x of 2^31", tiny, []Value{1, 1 << 31}, false},
		{"an x of -2^31", tiny, []Value{-1 << 31, 1}, false},
		{"guard product exactly B", atB, []Value{xB, xB}, true},
		{"guard product B + L1 (x one over)", atB, []Value{xB, -(xB + 1)}, false},
		{"guard product B + X (a weight one over)", NewMatrix([]Value{l1 - 7, 8, -1, 2}, 2), []Value{xB, xB}, false},
	} {
		if got := a.narrowExact(tc.w, tc.x); got != tc.narrow {
			t.Errorf("%s: narrowExact = %v, want %v", tc.name, got, tc.narrow)
		}
		want := KernelGeneric
		if hasAVX512 && tc.narrow {
			want = KernelNarrow
		}
		if got := a.MatVecKernel(tc.w, tc.x); got != want {
			t.Errorf("%s: MatVecKernel = %s, want %s", tc.name, got, want)
		}
		dst := make([]Value, 2)
		a.MatVec(dst, tc.w, tc.x)
		for j, got := range dst {
			if want := a.Dot(tc.w.Row(j), tc.x); got != want {
				t.Errorf("%s: row %d = %d, Dot %d", tc.name, j, got, want)
			}
		}
	}
}

// TestNewMatrixBounds checks the bounds NewMatrix records: fits32 over
// every entry, and the largest row L1, saturating rather than wrapping.
func TestNewMatrixBounds(t *testing.T) {
	for _, tc := range []struct {
		data     []Value
		cols     int
		fits32   bool
		maxRowL1 uint64
	}{
		{nil, 0, true, 0},
		{[]Value{1, -2, 3, -4, 5, -6}, 3, true, 15},
		{[]Value{math.MaxInt32, -math.MaxInt32}, 1, true, math.MaxInt32},
		{[]Value{0, -1 << 31}, 2, false, 1 << 31},
		{[]Value{math.MinInt64, 1}, 2, false, 1<<63 + 1},
		{[]Value{math.MinInt64, math.MinInt64, 0, 0}, 2, false, math.MaxUint64},
	} {
		m := NewMatrix(tc.data, tc.cols)
		if m.fits32 != tc.fits32 || m.maxRowL1 != tc.maxRowL1 {
			t.Errorf("NewMatrix(%v, %d): fits32 %v, maxRowL1 %d; want %v, %d", tc.data, tc.cols, m.fits32, m.maxRowL1, tc.fits32, tc.maxRowL1)
		}
	}
}

// BenchmarkMatVec runs MatVec on each kernel at the paper model's two gate
// shapes: the input product Wx (4H=128 rows over the O=8 embedding) and the
// recurrent product Wh (128 rows over the H=32 hidden state). The narrow leg
// is the full dispatched MatVec, its per-call x check included; the generic
// leg skips the check.
func BenchmarkMatVec(b *testing.B) {
	a := Default
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct {
		name    string
		rows, n int
	}{{"128x8", 128, 8}, {"128x32", 128, 32}} {
		w, x := make([]Value, shape.rows*shape.n), make([]Value, shape.n)
		for i := range w {
			w[i] = a.FromFloat(rng.Float64() - 0.5)
		}
		for i := range x {
			x[i] = a.FromFloat(rng.Float64() - 0.5)
		}
		m := NewMatrix(w, shape.n)
		dst := make([]Value, shape.rows)
		b.Run(shape.name, func(b *testing.B) {
			for _, k := range rowSumKernels {
				b.Run(string(k.name), func(b *testing.B) {
					skipUnsupported(b, k.name)
					b.ReportAllocs()
					if k.name == KernelNarrow {
						if got := a.MatVecKernel(m, x); got != KernelNarrow {
							b.Fatalf("MatVec takes %s on the benchmark operands", got)
						}
						for b.Loop() {
							a.MatVec(dst, m, x)
						}
						return
					}
					for b.Loop() {
						a.matVec(k.name, dst, w, x)
					}
				})
			}
		})
	}
}
