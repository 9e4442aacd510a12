// Package trace is the device-level timeline tracer of the simulated CSD
// stack — the reproduction's analogue of the Vitis Analyzer timelines the
// paper's optimization study (§III-D, Fig. 3) was read off of.
//
// A Tracer records timestamped begin/end events on virtual *tracks*: one
// per compute unit, DDR bank, PCIe link, SSD channel, and serve device
// queue. Instrumented layers (internal/csd, internal/core, internal/xrt,
// internal/serve) emit into a shared Tracer; the result exports as Chrome
// trace-event JSON — loadable in Perfetto or chrome://tracing — and as a
// text profile report (see Profile) that attributes simulated device
// cycles to named kernels and loop nests, reports compute-unit occupancy,
// and quantifies transfer/compute overlap.
//
// # Clock domains
//
// The trace timeline mixes two clock domains deliberately:
//
//   - Host events (queue waits) live in *wall clock*: their start is the
//     tracer-relative wall time at which they really happened.
//   - Device events (kernel runs, SSD reads, PCIe transfers) have
//     *simulated* durations from the calibrated timing models, anchored on
//     the timeline at the wall-clock moment the device picked the work up,
//     pushed later if the device's previous simulated work has not finished
//     yet (the per-group cursor below).
//
// Wall clock therefore provides ordering and cross-device concurrency;
// simulated durations provide magnitudes. Within one job the sub-events
// (SSD read → PCIe transfer → kernel stages) are placed relative to each
// other in pure device time, so intra-job overlap (e.g. the four
// kernel_gates CUs, or compute consuming items while the tail of the
// transfer is still in flight) renders exactly as the hardware would
// execute it.
//
// A nil *Tracer is valid everywhere and records nothing, so instrumented
// layers thread an optional tracer without branching.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Track identifies one horizontal timeline lane. Group names the owning
// hardware unit (one simulated device, or the serve scheduler) and renders
// as a Chrome trace "process"; Name is the lane within it (a CU, a DDR
// bank, a PCIe link, an SSD channel, a device queue) and renders as a
// "thread".
type Track struct {
	Group string `json:"group"`
	Name  string `json:"name"`
}

// Event categories. The profiler aggregates by category: CatKernel events
// carry simulated cycles and loop attributions, CatTransfer events form
// the data-movement intervals of the overlap computation, CatQueue events
// are host-side scheduling waits, and CatRuntime events are informational
// wrappers (XRT API calls) excluded from the aggregates.
const (
	CatKernel   = "kernel"
	CatTransfer = "transfer"
	CatQueue    = "queue"
	CatRuntime  = "runtime"
)

// LoopCycles attributes simulated cycles to one named loop nest of a
// kernel, taken from its hls.Schedule.
type LoopCycles struct {
	Name   string `json:"name"`
	Cycles int64  `json:"cycles"`
}

// Event is one completed interval on a track.
type Event struct {
	// Track is the lane the event occupies.
	Track Track `json:"track"`
	// Name labels the event (kernel name, transfer kind, "queue").
	Name string `json:"name"`
	// Cat is the event category (CatKernel, CatTransfer, ...).
	Cat string `json:"cat"`
	// Start is the event's position on the trace timeline, relative to the
	// tracer's start (see the package comment for the clock-domain rules).
	Start time.Duration `json:"start_ns"`
	// Dur is the event length: simulated device time for kernel/transfer
	// events, wall time for queue events.
	Dur time.Duration `json:"dur_ns"`
	// Job correlates every event of one request across layers (serve queue
	// → transfers → kernel runs); 0 means unattributed.
	Job int64 `json:"job,omitempty"`
	// Cycles is the simulated device cycle count (kernel events only).
	Cycles int64 `json:"cycles,omitempty"`
	// Loops breaks Cycles down by named loop nest (kernel events only).
	Loops []LoopCycles `json:"loops,omitempty"`
}

// End returns Start + Dur.
func (e Event) End() time.Duration { return e.Start + e.Dur }

// DefaultLimit bounds retained events; past it new events are counted as
// dropped rather than grown without bound (a trace of the table1 demo is a
// few thousand events; DefaultLimit is ample headroom for long holds).
const DefaultLimit = 1 << 18

// Option configures a Tracer.
type Option func(*Tracer)

// WithLimit caps retained events (<=0 keeps DefaultLimit).
func WithLimit(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.limit = n
		}
	}
}

// WithClock replaces the wall-clock source with now, which must report
// elapsed time since trace start. Tests use a manual clock to obtain
// deterministic timelines.
func WithClock(now func() time.Duration) Option {
	return func(t *Tracer) { t.now = now }
}

// Tracer is a low-overhead, concurrency-safe trace recorder. Emission is
// one short critical section appending to a preallocated-capacity slice;
// there is no per-event allocation beyond the event itself.
type Tracer struct {
	now   func() time.Duration
	limit int

	nextJob atomic.Int64

	mu      sync.Mutex
	events  []Event
	cursors map[string]time.Duration
	dropped int64
}

// New builds an empty tracer whose timeline starts now.
func New(opts ...Option) *Tracer {
	start := time.Now()
	t := &Tracer{
		now:     func() time.Duration { return time.Since(start) },
		limit:   DefaultLimit,
		cursors: make(map[string]time.Duration),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether events will actually be recorded; instrumented
// layers use it to skip building event payloads for a nil tracer.
func (t *Tracer) Enabled() bool { return t != nil }

// Elapsed returns the current wall-clock position on the trace timeline.
func (t *Tracer) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

// NewJob allocates the next correlation ID (1, 2, 3, ...). The scheduler
// calls it once per request and stores it on the request's record
// (telemetry.Span.ID), where every lower layer reads it.
func (t *Tracer) NewJob() int64 {
	if t == nil {
		return 0
	}
	return t.nextJob.Add(1)
}

// Anchor reserves the start position for a serial batch of device events
// in group: the current wall-clock offset, pushed later if the group's
// previously recorded device work extends past it. Callers place their
// events at offsets from the anchor and then Advance the group to the
// batch's end.
func (t *Tracer) Anchor(group string) time.Duration {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.cursors[group]; c > now {
		return c
	}
	return now
}

// Advance moves the group's device-time cursor to end (never backward).
func (t *Tracer) Advance(group string, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if end > t.cursors[group] {
		t.cursors[group] = end
	}
}

// Cursor returns the group's device-time cursor: the end of its last
// recorded device work.
func (t *Tracer) Cursor(group string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cursors[group]
}

// Emit records one event. Past the retention limit the event is counted
// as dropped instead.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Events returns a snapshot of the recorded events sorted by start time
// (then track, then name — a stable order shared by all exports).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track.Group != b.Track.Group {
			return a.Track.Group < b.Track.Group
		}
		if a.Track.Name != b.Track.Name {
			return a.Track.Name < b.Track.Name
		}
		return a.Name < b.Name
	})
	return out
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped counts events discarded past the retention limit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
