package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Unit names what a histogram's raw int64 observations measure; it controls
// how bucket bounds and sums are rendered in expositions.
type Unit uint8

const (
	// UnitSeconds: observations are nanoseconds, exposed as seconds (the
	// Prometheus convention for latency).
	UnitSeconds Unit = iota
	// UnitCount: observations are dimensionless counts (windows to flag).
	UnitCount
)

// String returns the unit name used in JSON snapshots.
func (u Unit) String() string {
	if u == UnitCount {
		return "count"
	}
	return "seconds"
}

// Buckets is a histogram bucket layout: sorted upper bounds in the raw unit
// plus the unit itself. The zero value selects DefaultLatencyBuckets.
type Buckets struct {
	unit   Unit
	bounds []int64
}

// DurationBuckets builds a latency bucket layout from ascending upper
// bounds.
func DurationBuckets(bounds ...time.Duration) Buckets {
	raw := make([]int64, len(bounds))
	for i, b := range bounds {
		raw[i] = int64(b)
	}
	return Buckets{unit: UnitSeconds, bounds: raw}
}

// CountBuckets builds a dimensionless bucket layout from ascending upper
// bounds.
func CountBuckets(bounds ...int64) Buckets {
	return Buckets{unit: UnitCount, bounds: append([]int64(nil), bounds...)}
}

// DefaultLatencyBuckets spans 1 µs – 5 s exponentially, covering everything
// from the sub-3 µs per-item FPGA latency of Table I up to host-side queue
// waits under saturation.
func DefaultLatencyBuckets() Buckets {
	return DurationBuckets(
		1*time.Microsecond, 2*time.Microsecond, 5*time.Microsecond,
		10*time.Microsecond, 20*time.Microsecond, 50*time.Microsecond,
		100*time.Microsecond, 200*time.Microsecond, 500*time.Microsecond,
		1*time.Millisecond, 2*time.Millisecond, 5*time.Millisecond,
		10*time.Millisecond, 20*time.Millisecond, 50*time.Millisecond,
		100*time.Millisecond, 200*time.Millisecond, 500*time.Millisecond,
		1*time.Second, 2*time.Second, 5*time.Second,
	)
}

// DefaultCountBuckets covers small integer distributions such as the
// windows a detector needs before it flags a process.
func DefaultCountBuckets() Buckets {
	return CountBuckets(1, 2, 4, 8, 16, 32, 64, 128)
}

func (b Buckets) orDefault() Buckets {
	if len(b.bounds) == 0 {
		return DefaultLatencyBuckets()
	}
	return b
}

// Histogram is a lock-free fixed-bucket histogram. Writers only perform
// atomic adds (plus a CAS loop for min/max and the squared sum), so
// concurrent Observe calls never contend on a lock; Snapshot is a racy but
// monotonically consistent read, which is the standard trade for scrape-time
// metric collection.
type Histogram struct {
	unit   Unit
	bounds []int64        // ascending upper bounds; implicit +Inf overflow
	counts []atomic.Int64 // len(bounds)+1, last is the overflow bucket

	count atomic.Int64
	sum   atomic.Int64
	sumSq atomic.Uint64 // float64 bits; squared ns overflow int64 quickly
	min   atomic.Int64
	max   atomic.Int64
}

// NewHistogram builds a histogram with the given bucket layout (zero value:
// DefaultLatencyBuckets). Bounds must be ascending; NewHistogram sorts and
// deduplicates defensively.
func NewHistogram(b Buckets) *Histogram {
	b = b.orDefault()
	bounds := append([]int64(nil), b.bounds...)
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	dedup := bounds[:0]
	for i, v := range bounds {
		if i == 0 || v != bounds[i-1] {
			dedup = append(dedup, v)
		}
	}
	h := &Histogram{unit: b.unit, bounds: dedup, counts: make([]atomic.Int64, len(dedup)+1)}
	h.min.Store(math.MaxInt64)
	return h
}

// Unit returns the histogram's unit.
func (h *Histogram) Unit() Unit { return h.unit }

// ObserveDuration records one latency observation.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Observe records one raw observation (nanoseconds for UnitSeconds
// histograms). Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	addFloatBits(&h.sumSq, float64(v)*float64(v))
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// addFloatBits atomically adds delta to a float64 stored as uint64 bits.
func addFloatBits(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bucket is one bucket of a snapshot: the count of observations at or below
// UpperBound (non-cumulative; the exposition layer cumulates).
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound in raw units;
	// math.MaxInt64 marks the overflow (+Inf) bucket.
	UpperBound int64 `json:"upper_bound"`
	// Count is this bucket's own observation count.
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time read of a histogram: streaming
// moments (mean ± 95% CI, the paper's Table I convention), bucket-estimated
// quantiles, and the raw buckets. All value fields are in the histogram's
// raw unit (nanoseconds for UnitSeconds).
type HistogramSnapshot struct {
	Unit  string `json:"unit"`
	Count int64  `json:"observations"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	// Mean, StdDev, CILow, CIHigh describe the sample: mean and a 95%
	// Student-t confidence interval of the mean. CILow == CIHigh == Mean
	// when Count < 2.
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	CILow  float64 `json:"ci95_low"`
	CIHigh float64 `json:"ci95_high"`
	// P50, P90, P99 are bucket-boundary quantile estimates with linear
	// interpolation inside the landing bucket (the histogram_quantile
	// estimator), clamped to the observed [Min, Max].
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot reads the histogram. Under concurrent writers the moments and
// buckets may disagree by in-flight observations; each field is itself
// consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Unit: h.unit.String(), Count: h.count.Load(), Sum: h.sum.Load()}
	s.Buckets = make([]Bucket, len(h.counts))
	var cum int64
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		cum += counts[i]
		bound := int64(math.MaxInt64)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: bound, Count: counts[i]}
	}
	// Quantiles walk the bucket counts, not the (possibly newer) count
	// field, so the estimate is internally consistent.
	if cum == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	mean := float64(s.Sum) / float64(s.Count)
	s.Mean = mean
	if s.Count >= 2 {
		sumSq := math.Float64frombits(h.sumSq.Load())
		n := float64(s.Count)
		variance := (sumSq - n*mean*mean) / (n - 1)
		if variance < 0 { // floating-point cancellation on tight samples
			variance = 0
		}
		s.StdDev = math.Sqrt(variance)
		half := tCritical95(int(s.Count-1)) * s.StdDev / math.Sqrt(n)
		s.CILow, s.CIHigh = mean-half, mean+half
	} else {
		s.CILow, s.CIHigh = mean, mean
	}
	s.P50 = h.quantile(counts, cum, 0.50, s.Min, s.Max)
	s.P90 = h.quantile(counts, cum, 0.90, s.Min, s.Max)
	s.P99 = h.quantile(counts, cum, 0.99, s.Min, s.Max)
	return s
}

// quantile estimates the q-quantile from per-bucket counts by linear
// interpolation between the landing bucket's bounds, clamped to the
// observed extremes (the overflow bucket reports the observed max — there
// is no upper bound to interpolate toward).
func (h *Histogram) quantile(counts []int64, total int64, q float64, min, max int64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) { // overflow bucket
			return float64(max)
		}
		lower := float64(min)
		if i > 0 {
			lower = float64(h.bounds[i-1])
		}
		upper := float64(h.bounds[i])
		frac := (rank - (cum - float64(c))) / float64(c)
		v := lower + frac*(upper-lower)
		if v > float64(max) {
			v = float64(max)
		}
		if v < float64(min) {
			v = float64(min)
		}
		return v
	}
	return float64(max)
}

// tCritical95 returns the two-sided 95% Student-t critical value (the same
// convention internal/metrics uses for Table I, kept local so telemetry
// stays dependency-free).
func tCritical95(df int) float64 {
	table := []float64{
		0,
		12.706,
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df < len(table):
		return table[df]
	case df < 60:
		return 2.00
	case df < 120:
		return 1.98
	default:
		return 1.96
	}
}
