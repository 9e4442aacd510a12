package fixed

import (
	"fmt"
	"math/bits"
)

// This file holds the overflow-checked variants of the Arith primitives.
//
// The unchecked ops in fixed.go are what the synthesized kernels model: plain
// int64 adds and multiplies that wrap silently, exactly like the fixed-width
// datapath on the FPGA. The checked variants compute the *same* wrapped value
// — bit-for-bit what the unchecked op would have produced — but additionally
// report ErrOverflow when the true mathematical result escaped int64. That
// property lets debug and fuzz builds (the kernels numeric probe,
// FuzzIntervalSoundness in internal/absint) shadow the production datapath
// without perturbing it: results are identical, wraps become observable.
//
// The static counterpart is internal/absint, which proves at design time that
// the checked variants can never return an error for a given model and scale.

// AddChecked is Add with overflow detection. The returned Value is the wrapped
// sum the unchecked Add produces; err is non-nil when x+y escaped int64.
func (a Arith) AddChecked(x, y Value) (Value, error) {
	s := x + y
	if (y > 0 && s < x) || (y < 0 && s > x) {
		return s, fmt.Errorf("%w: add %d + %d wrapped", ErrOverflow, x, y)
	}
	return s, nil
}

// SubChecked is Sub with overflow detection, with the same wrapped-value
// contract as AddChecked.
func (a Arith) SubChecked(x, y Value) (Value, error) {
	d := x - y
	if (y < 0 && d < x) || (y > 0 && d > x) {
		return d, fmt.Errorf("%w: sub %d - %d wrapped", ErrOverflow, x, y)
	}
	return d, nil
}

// MulRaw returns the raw scale-S^2 product x*y without the rescale that Mul
// applies, detecting overflow of the product. The returned Value is the
// wrapped product on overflow, matching what the unchecked x*y computes.
func (a Arith) MulRaw(x, y Value) (Value, error) {
	p := x * y
	if x == 0 {
		return 0, nil
	}
	if x == -1 {
		// p/x below would fault for y == MinInt64; -MinInt64 is the only
		// product of -1 that wraps.
		if p == minInt64 && y == minInt64 {
			return p, fmt.Errorf("%w: mul %d * %d wrapped", ErrOverflow, x, y)
		}
		return p, nil
	}
	if p/x != y {
		return p, fmt.Errorf("%w: mul %d * %d wrapped", ErrOverflow, x, y)
	}
	return p, nil
}

// MulChecked is Mul with overflow detection on both the raw product and the
// rounding bias added by the final rescale.
func (a Arith) MulChecked(x, y Value) (Value, error) {
	p, err := a.MulRaw(x, y)
	if err != nil {
		return a.rescale(p), err
	}
	if rErr := a.rescaleRoundCheck(p); rErr != nil {
		return a.rescale(p), rErr
	}
	return a.rescale(p), nil
}

// FromRaw rescales a raw scale-S^2 accumulator (as produced by MulRaw or
// DotRaw) back to the working scale with rounding — the correction Mul and Dot
// apply internally.
func (a Arith) FromRaw(raw Value) Value { return a.rescale(raw) }

// DotRaw returns the raw scale-S^2 accumulator of the dot product — the value
// Dot holds immediately before its final rescale — detecting overflow of every
// product and every partial sum along the way. The returned Value is always
// the same accumulator the unchecked Dot computes (wrapped on overflow); the
// first overflow encountered is reported.
//
// Like Dot, it panics on a length mismatch: kernel shapes are fixed at
// initialization, so a mismatch is a programming error.
func (a Arith) DotRaw(x, y []Value) (Value, error) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("fixed: dot length mismatch %d != %d", len(x), len(y)))
	}
	var acc int64
	var firstErr error
	for i := range x {
		p, err := a.MulRaw(x[i], y[i])
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%w: dot product at index %d", ErrOverflow, i)
		}
		s := acc + p
		if (p > 0 && s < acc) || (p < 0 && s > acc) {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: dot accumulator wrapped at index %d", ErrOverflow, i)
			}
		}
		acc = s
	}
	return acc, firstErr
}

// DotChecked is Dot with overflow detection: same wrapped result, plus
// ErrOverflow when any product, partial sum, or the final rounding bias
// escaped int64.
func (a Arith) DotChecked(x, y []Value) (Value, error) {
	raw, err := a.DotRaw(x, y)
	if err != nil {
		return a.rescale(raw), err
	}
	if rErr := a.rescaleRoundCheck(raw); rErr != nil {
		return a.rescale(raw), rErr
	}
	return a.rescale(raw), nil
}

// Rescale converts v from the scale of `from` to the scale of a. When the
// scales divide evenly the conversion is exact integer math (a widening
// multiply or a rounded narrowing divide); otherwise it goes through the
// 128-bit v*a.scale/from.scale path. This is the only sanctioned way to move
// a Value between two Ariths — a raw multiply by the scale ratio is exactly
// the kind of unchecked arithmetic the fixedwidth analyzer flags.
func (a Arith) Rescale(v Value, from Arith) Value {
	if a.scale == from.scale {
		return v
	}
	if a.scale%from.scale == 0 {
		return v * (a.scale / from.scale)
	}
	if from.scale%a.scale == 0 {
		return roundedDiv(v, from.scale/a.scale)
	}
	return mulDivRound(v, a.scale, from.scale)
}

// mulDivRound returns v*num/den (num, den > 0) through a 128-bit product,
// rounding half away from zero. A quotient beyond int64 keeps its low 64
// bits, the same wrap the unchecked ops make.
func mulDivRound(v, num, den int64) int64 {
	mag := uint64(v)
	if v < 0 {
		mag = -mag
	}
	d := uint64(den)
	hi, lo := bits.Mul64(mag, uint64(num))
	q, r := bits.Div64(hi%d, lo, d)
	if r >= d-r {
		q++
	}
	if v < 0 {
		return -int64(q)
	}
	return int64(q)
}

// rescaleRoundCheck reports whether roundedDiv(raw, a.scale) would overflow
// while adding its half-denominator rounding bias.
func (a Arith) rescaleRoundCheck(raw Value) error {
	half := a.scale / 2
	if raw >= 0 && raw > maxInt64-half {
		return fmt.Errorf("%w: rescale rounding bias on %d wrapped", ErrOverflow, raw)
	}
	if raw < 0 && raw < minInt64+half {
		return fmt.Errorf("%w: rescale rounding bias on %d wrapped", ErrOverflow, raw)
	}
	return nil
}

const (
	maxInt64 = int64(^uint64(0) >> 1)
	minInt64 = -maxInt64 - 1
)
