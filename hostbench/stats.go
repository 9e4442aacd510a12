package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"time"
)

// sorted returns a sorted copy.
func sorted[T int64 | float64 | time.Duration](xs []T) []T {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile[T int64 | float64 | time.Duration](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// meanNs is the mean of xs in nanoseconds. It sums in float64, so a
// failedLatency entry makes it huge instead of overflowing.
func meanNs(xs []time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Go runtime metrics read at both ends of the measured interval.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// runtimeDelta is the Go runtime's work over the measured interval.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	// pauseP99 is the 99th-percentile stop-the-world GC pause (bucket
	// upper bound).
	pauseP99 time.Duration
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func runtimeBetween(before, after []metrics.Sample) runtimeDelta {
	d := runtimeDelta{
		allocBytes: after[0].Value.Uint64() - before[0].Value.Uint64(),
		gcCycles:   after[1].Value.Uint64() - before[1].Value.Uint64(),
	}
	h0, h1 := before[2].Value.Float64Histogram(), after[2].Value.Float64Histogram()
	counts := make([]uint64, len(h1.Counts))
	var total uint64
	for i := range counts {
		counts[i] = h1.Counts[i] - h0.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		if seen += c; seen >= rank {
			upper := h1.Buckets[i+1]
			if math.IsInf(upper, 1) {
				upper = h1.Buckets[i]
			}
			d.pauseP99 = time.Duration(upper * float64(time.Second))
			break
		}
	}
	return d
}
