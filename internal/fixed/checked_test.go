package fixed

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestCheckedMatchesUncheckedInRange pins the core contract: inside int64,
// every checked op returns exactly the unchecked result and no error.
func TestCheckedMatchesUncheckedInRange(t *testing.T) {
	a := Default
	cases := [][2]Value{
		{0, 0},
		{a.FromFloat(1.5), a.FromFloat(-2.25)},
		{a.FromFloat(-0.001), a.FromFloat(0.001)},
		{a.FromInt(1000), a.FromInt(-3000)},
	}
	for _, c := range cases {
		x, y := c[0], c[1]
		if got, err := a.AddChecked(x, y); err != nil || got != a.Add(x, y) {
			t.Errorf("AddChecked(%d,%d) = %d,%v want %d,nil", x, y, got, err, a.Add(x, y))
		}
		if got, err := a.SubChecked(x, y); err != nil || got != a.Sub(x, y) {
			t.Errorf("SubChecked(%d,%d) = %d,%v want %d,nil", x, y, got, err, a.Sub(x, y))
		}
		if got, err := a.MulChecked(x, y); err != nil || got != a.Mul(x, y) {
			t.Errorf("MulChecked(%d,%d) = %d,%v want %d,nil", x, y, got, err, a.Mul(x, y))
		}
	}
	xs := []Value{a.FromFloat(0.5), a.FromFloat(-1.25), a.FromFloat(2.0)}
	ys := []Value{a.FromFloat(3.0), a.FromFloat(0.125), a.FromFloat(-0.75)}
	if got, err := a.DotChecked(xs, ys); err != nil || got != a.Dot(xs, ys) {
		t.Errorf("DotChecked = %d,%v want %d,nil", got, err, a.Dot(xs, ys))
	}
}

// TestCheckedReportsWrapWithWrappedValue pins the shadow-datapath property:
// on overflow the checked ops return ErrOverflow AND the identical wrapped
// value the unchecked op computes, so a probed pipeline never diverges from
// the production one.
func TestCheckedReportsWrapWithWrappedValue(t *testing.T) {
	a := Default

	x, y := Value(math.MaxInt64), Value(1)
	got, err := a.AddChecked(x, y)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("AddChecked(max,1) err = %v, want ErrOverflow", err)
	}
	if got != x+y {
		t.Fatalf("AddChecked wrapped value = %d, want %d", got, x+y)
	}

	min := Value(math.MinInt64)
	got, err = a.SubChecked(min, 1)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("SubChecked(min,1) err = %v, want ErrOverflow", err)
	}
	if got != min-1 {
		t.Fatalf("SubChecked wrapped value mismatch")
	}

	big := Value(4_000_000_000) // 4e9^2 = 1.6e19 > MaxInt64
	raw, err := a.MulRaw(big, big)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("MulRaw err = %v, want ErrOverflow", err)
	}
	if raw != big*big {
		t.Fatalf("MulRaw wrapped value = %d, want %d", raw, big*big)
	}
	if _, err := a.MulChecked(big, big); !errors.Is(err, ErrOverflow) {
		t.Fatalf("MulChecked err = %v, want ErrOverflow", err)
	}

	// -1 * MinInt64 is the one product of -1 that wraps; it must not fault.
	if _, err := a.MulRaw(-1, Value(math.MinInt64)); !errors.Is(err, ErrOverflow) {
		t.Fatalf("MulRaw(-1,min) err = %v, want ErrOverflow", err)
	}
	if v, err := a.MulRaw(-1, 42); err != nil || v != -42 {
		t.Fatalf("MulRaw(-1,42) = %d,%v want -42,nil", v, err)
	}
}

// TestDotRawDetectsPartialSumWrap seeds a dot product whose individual
// products fit int64 but whose running accumulator wraps — the silent failure
// mode of the unchecked Dot this package previously could not observe.
func TestDotRawDetectsPartialSumWrap(t *testing.T) {
	a := Default
	half := Value(3 << 61) // 3*2^61 ≈ 6.9e18; two of them wrap
	xs := []Value{half, half}
	ys := []Value{1, 1}
	raw, err := a.DotRaw(xs, ys)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("DotRaw err = %v, want ErrOverflow", err)
	}
	if raw != half+half { // wrapped, same as unchecked accumulation
		t.Fatalf("DotRaw wrapped accumulator = %d, want %d", raw, half+half)
	}
	if got := a.Dot(xs, ys); got != a.FromRaw(raw) {
		t.Fatalf("Dot = %d, FromRaw(DotRaw) = %d: checked path diverged", got, a.FromRaw(raw))
	}
}

// TestDotRawCleanMatchesDot checks the raw accumulator is exactly Dot's
// pre-rescale state on a clean input.
func TestDotRawCleanMatchesDot(t *testing.T) {
	a := Default
	xs := []Value{a.FromFloat(1.5), a.FromFloat(-2.0), a.FromFloat(0.25)}
	ys := []Value{a.FromFloat(-0.5), a.FromFloat(3.0), a.FromFloat(8.0)}
	raw, err := a.DotRaw(xs, ys)
	if err != nil {
		t.Fatalf("DotRaw err = %v", err)
	}
	if got, want := a.FromRaw(raw), a.Dot(xs, ys); got != want {
		t.Fatalf("FromRaw(DotRaw) = %d, Dot = %d", got, want)
	}
}

// TestRescale covers the three conversion paths: exact widen, rounded narrow,
// and the 128-bit general case.
func TestRescale(t *testing.T) {
	wide := MustNew(1_000_000)
	narrow := MustNew(100)

	// Widen: 1.25 at scale 100 is 125; at scale 1e6 it is 1_250_000.
	if got := wide.Rescale(125, narrow); got != 1_250_000 {
		t.Fatalf("widen Rescale = %d, want 1250000", got)
	}
	// Narrow: 1.2345 at 1e6 → 123 at 100 (1.23 rounded from 1.2345 is 1.23).
	if got := narrow.Rescale(1_234_500, wide); got != 123 {
		t.Fatalf("narrow Rescale = %d, want 123", got)
	}
	// Rounding half away from zero on the narrow path.
	if got := narrow.Rescale(1_235_000, wide); got != 124 {
		t.Fatalf("narrow Rescale half = %d, want 124", got)
	}
	if got := narrow.Rescale(-1_235_000, wide); got != -124 {
		t.Fatalf("narrow Rescale -half = %d, want -124", got)
	}
	// General path: scales 300 → 700 don't divide; 1.5 at 300 is 450,
	// at 700 it is 1050.
	s300, s700 := MustNew(300), MustNew(700)
	if got := s700.Rescale(450, s300); got != 1050 {
		t.Fatalf("general Rescale = %d, want 1050", got)
	}
	// Identity.
	if got := wide.Rescale(777, wide); got != 777 {
		t.Fatalf("identity Rescale = %d, want 777", got)
	}
}

// TestRescaleGeneralMatchesBigInt pins Rescale's 128-bit path (scales that
// do not divide each other) to exact big-integer arithmetic: |v|·num/den
// rounded half away from zero, signed, and cut to its low 64 bits when the
// quotient leaves int64.
func TestRescaleGeneralMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := []Value{0, 1, -1, 449, -450, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i := 0; i < 2000; i++ {
		vs = append(vs, Value(rng.Uint64())>>(i%64))
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, sc := range [][2]int64{{300, 700}, {700, 300}, {1_000_000, 4096}, {4096, 1_000_000}, {3, math.MaxInt64}, {math.MaxInt64, 3}} {
		from, to := MustNew(sc[0]), MustNew(sc[1])
		for _, v := range vs {
			q, r := new(big.Int).QuoRem(
				new(big.Int).Mul(new(big.Int).Abs(big.NewInt(v)), big.NewInt(sc[1])),
				big.NewInt(sc[0]), new(big.Int))
			if new(big.Int).Lsh(r, 1).Cmp(big.NewInt(sc[0])) >= 0 {
				q.Add(q, big.NewInt(1))
			}
			if v < 0 {
				q.Neg(q)
			}
			want := int64(new(big.Int).Mod(q, mod).Uint64())
			if got := to.Rescale(v, from); got != want {
				t.Fatalf("Rescale(%d) from %d to %d = %d, want %d", v, sc[0], sc[1], got, want)
			}
		}
	}
}
