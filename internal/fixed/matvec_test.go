package fixed

import (
	"math/rand"
	"testing"
)

// rowSumKernels are the two four-row kernels MatVec chooses between. The
// tests below call them directly, whatever this CPU dispatches to.
var rowSumKernels = []struct {
	name string
	fn   func(dst, w, x []Value)
}{
	{"simd", rowSums4AVX512},
	{"generic", rowSums4Generic},
}

// kernelScales are the paper's scale and two that take the generic rescale.
var kernelScales = []int64{DefaultScale, 1 << 12, 10_000}

// skipUnsupported skips the simd leg on a CPU that cannot run it.
func skipUnsupported(tb testing.TB, kernel string) {
	tb.Helper()
	if kernel == "simd" && !hasAVX512 {
		tb.Skip("CPU lacks AVX512F/AVX512DQ or OS-enabled ZMM state: rowSums4AVX512 cannot run here")
	}
}

// checkKernel runs kernel over a rows×len(x) matrix w twice. Called alone, it
// must leave every full-block row's raw sum equal to DotRaw's accumulator and
// write nothing to the rows%4 tail or past len(dst). Run through matVec, every
// row must equal the per-row Dot.
func checkKernel(tb testing.TB, a Arith, kernel func(dst, w, x []Value), rows int, w, x []Value) {
	tb.Helper()
	n := len(x)
	const sentinel = Value(-0x5a5a5a5a5a5a5a5b)
	raw := make([]Value, rows+1)
	for j := range raw {
		raw[j] = sentinel
	}
	kernel(raw[:rows], w, x)
	full := rows &^ 3
	for j, got := range raw {
		want := sentinel
		if j < full {
			want, _ = a.DotRaw(w[j*n:(j+1)*n], x)
		}
		if got != want {
			tb.Fatalf("%dx%d: raw row %d = %d, want %d", rows, n, j, got, want)
		}
	}
	dst := make([]Value, rows)
	a.matVec(kernel, dst, w, x)
	for j, got := range dst {
		if want := a.Dot(w[j*n:(j+1)*n], x); got != want {
			tb.Fatalf("scale %d, %dx%d: row %d = %d, Dot %d", a.Scale(), rows, n, j, got, want)
		}
	}
}

// TestMatVecKernelsAgree checks both kernels against per-row Dot on every
// shape up to 17 rows by 41 columns, which covers every n%8 tail and every
// rows%4 remainder, with operands in range and operands that wrap the
// accumulator, at each scale in kernelScales.
func TestMatVecKernelsAgree(t *testing.T) {
	if hasAVX512 {
		t.Log("MatVec path on this CPU: simd (rowSums4AVX512)")
	} else {
		t.Log("MatVec path on this CPU: generic (rowSums4Generic)")
	}
	for _, k := range rowSumKernels {
		t.Run(k.name, func(t *testing.T) {
			skipUnsupported(t, k.name)
			rng := rand.New(rand.NewSource(11))
			for _, scale := range kernelScales {
				a := MustNew(scale)
				for rows := 0; rows <= 17; rows++ {
					for n := 0; n <= 41; n++ {
						for _, wrap := range []bool{false, true} {
							val := func() Value {
								if wrap {
									return Value(rng.Uint64())
								}
								return Value(rng.Int63n(4*scale) - 2*scale)
							}
							w, x := make([]Value, rows*n), make([]Value, n)
							for i := range w {
								w[i] = val()
							}
							for i := range x {
								x[i] = val()
							}
							checkKernel(t, a, k.fn, rows, w, x)
						}
					}
				}
			}
		})
	}
}

// FuzzMatVecKernelsAgree is TestMatVecKernelsAgree on fuzzed shapes (up to
// 255×255), seeds and magnitudes: shift 0 draws full-range int64 operands
// that wrap, larger shifts draw smaller ones. The simd leg runs only where
// the CPU supports it; FuzzFixedFastMatchesShadow in internal/kernels drives
// the dispatched MatVec.
func FuzzMatVecKernelsAgree(f *testing.F) {
	f.Add(uint8(17), uint8(41), int64(1), uint8(0), uint8(0))
	f.Add(uint8(128), uint8(32), int64(2), uint8(30), uint8(1))
	f.Add(uint8(128), uint8(8), int64(3), uint8(40), uint8(2))
	f.Fuzz(func(t *testing.T, rows, n uint8, seed int64, shift, scaleSel uint8) {
		a := MustNew(kernelScales[int(scaleSel)%len(kernelScales)])
		rng := rand.New(rand.NewSource(seed))
		w, x := make([]Value, int(rows)*int(n)), make([]Value, n)
		for i := range w {
			w[i] = Value(rng.Uint64()) >> (shift % 64)
		}
		for i := range x {
			x[i] = Value(rng.Uint64()) >> (shift % 64)
		}
		for _, k := range rowSumKernels {
			if k.name == "simd" && !hasAVX512 {
				continue
			}
			checkKernel(t, a, k.fn, int(rows), w, x)
		}
	})
}

// BenchmarkMatVec runs MatVec on both kernels at the paper model's two gate
// shapes: the input product Wx (4H=128 rows over the O=8 embedding) and the
// recurrent product Wh (128 rows over the H=32 hidden state).
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
		dst := make([]Value, shape.rows)
		b.Run(shape.name, func(b *testing.B) {
			for _, k := range rowSumKernels {
				b.Run(k.name, func(b *testing.B) {
					skipUnsupported(b, k.name)
					b.ReportAllocs()
					for b.Loop() {
						a.matVec(k.fn, dst, w, x)
					}
				})
			}
		})
	}
}
