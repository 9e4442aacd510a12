package activation

import (
	"math"
	"math/rand"
	"testing"

	"github.com/kfrida1/csdinf/internal/fixed"
)

// The branchy activation bodies the branch-free slice forms replaced, kept
// here as the oracle for their bit-identity. The shadow datapath behind the
// numeric probe calls the same activation code as the fast path, so
// FuzzFixedFastMatchesShadow cannot see an activation bug; these checks can.

// refRoundedDiv divides num by den rounding half away from zero, with the
// bias chosen by a branch on num's sign.
func refRoundedDiv(num, den int64) int64 {
	if num >= 0 {
		return (num + den/2) / den
	}
	return (num - den/2) / den
}

// refMul is Arith.Mul: the raw product rescaled by S with rounding.
func refMul(s, x, y int64) int64 { return refRoundedDiv(x*y, s) }

// refSoftsign is x*S / (|x| + S) with rounding, |x| wrapping on MinInt64.
func refSoftsign(s, x int64) int64 {
	ax := x
	if x < 0 {
		ax = -x
	}
	return refRoundedDiv(x*s, ax+s)
}

// refSigmoid is the PLAN sigmoid as a four-way switch on |x| and a branch
// on the sign.
func refSigmoid(a fixed.Arith, x int64) int64 {
	s := a.Scale()
	ax := x
	if x < 0 {
		ax = -x
	}
	var y int64
	switch {
	case ax >= a.FromInt(5):
		y = s
	case ax >= a.FromFloat(2.375):
		y = refMul(s, a.FromFloat(0.03125), ax) + a.FromFloat(0.84375)
	case ax >= s:
		y = refMul(s, a.FromFloat(0.125), ax) + a.FromFloat(0.625)
	default:
		y = refMul(s, a.FromFloat(0.25), ax) + a.FromFloat(0.5)
	}
	if x < 0 {
		return s - y
	}
	return y
}

// referenceScales are the scales of FuzzFixedFastMatchesShadow (10⁶ takes
// the constant-divisor rescale, 2¹² and 10⁴ the generic one), an odd
// scale, and 1, where every PLAN slope quantizes to 0.
var referenceScales = []int64{fixed.DefaultScale, 1 << 12, 10_000, 999_983, 1}

// actDomain is internal/absint's activation-safe input domain at scale s:
// the largest |x| for which x*S and |x| + S cannot wrap.
func actDomain(s int64) int64 { return (math.MaxInt64 - s) / (s + 1) }

// referenceInputs returns the activation inputs TestActivationsMatchReference
// checks at a's scale: every PLAN breakpoint ±1/±2 with both signs, the int64
// extremes, the band |x| > MaxInt64-S where |x| + S wraps, and seeded random
// values over all of int64 and over the activation-safe domain.
func referenceInputs(a fixed.Arith, rng *rand.Rand) []int64 {
	s := a.Scale()
	xs := []int64{0, 1, -1, s, -s, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for _, b := range []int64{s, a.FromFloat(2.375), a.FromInt(5)} {
		for d := int64(-2); d <= 2; d++ {
			xs = append(xs, b+d, -(b + d))
		}
	}
	band := math.MaxInt64 - s
	for i := int64(0); i <= min(s, 1<<12); i++ {
		xs = append(xs, band+i, -(band + i), math.MinInt64+i)
	}
	dom := actDomain(s)
	xs = append(xs, dom, -dom, dom+1, -(dom + 1))
	for range 20_000 {
		xs = append(xs, int64(rng.Uint64()), rng.Int63n(2*dom+1)-dom, band+rng.Int63n(s))
		// A quarter of the draws fall in [-6, 6], across all four PLAN segments.
		xs = append(xs, rng.Int63n(12*s+1)-6*s)
	}
	return xs
}

// referenceDivisors are the divisors Div is checked with: both signs, ±1,
// the int64 extremes and the scale's neighbours.
func referenceDivisors(s int64) []int64 {
	ds := []int64{1, -1, 2, -2, 3, -3, s, -s, s + 1, -(s + 1), math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	if s > 1 {
		ds = append(ds, s-1, -(s - 1))
	}
	return ds
}

// checkActivations fails t if Sigmoid, Softsign, their slice forms or Div
// differ from the reference at any input of xs or divisor of ds.
func checkActivations(t *testing.T, a fixed.Arith, xs, ds []int64) {
	t.Helper()
	s := a.Scale()
	fa := NewFixed(a)
	sig := append([]int64(nil), xs...)
	fa.SigmoidSlice(sig)
	soft := append([]int64(nil), xs...)
	fa.SoftsignSlice(soft)
	for i, x := range xs {
		if want := refSigmoid(a, x); sig[i] != want || fa.Sigmoid(x) != want {
			t.Fatalf("scale %d: Sigmoid(%d) = %d, slice %d, reference %d", s, x, fa.Sigmoid(x), sig[i], want)
		}
		if want := refSoftsign(s, x); soft[i] != want || fa.Softsign(x) != want {
			t.Fatalf("scale %d: Softsign(%d) = %d, slice %d, reference %d", s, x, fa.Softsign(x), soft[i], want)
		}
		for _, d := range ds {
			got, err := a.Div(x, d)
			if want := refRoundedDiv(x*s, d); err != nil || got != want {
				t.Fatalf("scale %d: Div(%d, %d) = %d, %v; reference %d", s, x, d, got, err, want)
			}
		}
	}
}

// TestActivationsMatchReference pins the branch-free Sigmoid, Softsign and
// rounded division (through Div) to their branchy references, bit for bit.
func TestActivationsMatchReference(t *testing.T) {
	for _, s := range referenceScales {
		a := fixed.MustNew(s)
		rng := rand.New(rand.NewSource(s))
		xs := referenceInputs(a, rng)
		ds := referenceDivisors(s)
		for range 8 {
			ds = append(ds, int64(rng.Uint64())|1, -(rng.Int63n(4*s) + 1))
		}
		checkActivations(t, a, xs, ds)
	}
}

func FuzzActivationsMatchReference(f *testing.F) {
	f.Add(int64(0), int64(1), uint8(0))
	f.Add(int64(2_375_000), int64(-3), uint8(0))
	f.Add(int64(math.MinInt64), int64(-1), uint8(1))
	f.Add(int64(math.MaxInt64-5000), int64(math.MinInt64), uint8(2))
	f.Add(int64(-4999), int64(7), uint8(3))
	f.Fuzz(func(t *testing.T, x, d int64, scaleIdx uint8) {
		a := fixed.MustNew(referenceScales[int(scaleIdx)%len(referenceScales)])
		ds := referenceDivisors(a.Scale())
		if d != 0 {
			ds = append(ds, d)
		}
		checkActivations(t, a, []int64{x, -x, x + a.Scale(), x - a.Scale()}, ds)
	})
}
