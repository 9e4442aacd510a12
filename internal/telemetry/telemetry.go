// Package telemetry is the repo's zero-dependency observability core: the
// runtime counterpart of the paper's evaluation methodology. The paper
// reports per-platform inference latency as mean ± 95% CI (Table I) and
// argues the CSD defense runs continuously inside a loaded data-center node
// (§II, §IV); an operator of such a node needs those same quantities live —
// per-device latency distributions, queue pressure, verdict rates — to know
// the defense is healthy. This package supplies the instruments:
//
//   - Counter and Gauge: atomic scalars.
//   - Histogram: a lock-free fixed-bucket latency histogram with streaming
//     quantile estimation (p50/p90/p99) and mean ± 95% CI, mirroring the
//     paper's Table I reporting convention.
//   - Registry: a labeled metric namespace with Prometheus-text and JSON
//     exposition plus a human-readable summary table.
//   - Span and SpanLog: the one per-request record riding the context —
//     trace job ID, device, the pipeline phases (queue wait → SSD transfer
//     → FPGA compute → verdict) and, when a profiler opened it, per-Stage
//     host wall time — and a ring of recent completed records.
//
// Everything except a Span in flight is safe for concurrent use, and
// everything is built only on the standard library; the rest of the stack
// (internal/serve, internal/core, internal/fleet, internal/detect,
// internal/cti) instruments against it.
// Construction helpers are nil-receiver safe: calling Counter/Gauge/
// Histogram on a nil *Registry returns a live but unregistered metric, so
// instrumented code needs no "is telemetry enabled" branches.
//
// A note on clocks: the device-side histograms (transfer, compute) record
// *simulated* device time from infer.Timing — the calibrated timing model
// that stands in for real hardware — while queue-wait histograms record
// wall time, because queueing happens in the real host scheduler. See
// DESIGN.md ("Telemetry").
package telemetry

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored: a counter is monotonic, and a
// silent decrement would corrupt rate queries downstream.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, model generation).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
