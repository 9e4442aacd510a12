// Package prof is the continuous profiler: the fifth observability layer,
// watching the watchers. telemetry/trace/eventlog/slo answer "what is the
// service doing"; prof answers "what is the *process* doing while it does
// it" — where the host-side nanoseconds and allocations of each request go,
// how the Go runtime (goroutines, heap, GC, lock contention) behaves under
// load, and how much the observability stack itself costs.
//
// Three instruments, all zero-dependency and cheap enough to run always-on:
//
//   - A runtime sampler: allocation, GC and GC-pause deltas between reads
//     of telemetry.ReadRuntime (runtime/metrics, which never stops the
//     world), plus what runtime/metrics lacks — the top-N contended sites
//     of the mutex and block profiles and the sampler's own cost — exported
//     as go_*/prof_* series and /prof.json.
//   - Hot-path cost attribution: each request's record (telemetry.Span)
//     carries its wall-clock time (and, in serialized audit runs,
//     allocations) per pipeline stage — queue, encode, transfer, compute,
//     verdict, observe. The layer that creates a record opens it (Open),
//     serve/core/detect stamp their stages, and Record aggregates it into
//     prof_stage_seconds histograms.
//     The "observe" stage prices the telemetry/trace/eventlog record calls
//     themselves, so the overhead of observability is itself observable.
//   - A flight recorder: a bounded ring of recent runtime samples, dumped
//     with the Config.Spans rows (the /spans.json rows, both clocks) to a
//     JSON artifact (plus a prof.flight.dump event) when an SLO page fires
//     or an incident opens, so every page ships with the runtime state and
//     the requests that preceded it.
//
// Like the rest of the stack, a nil *Profiler (and a nil record) is valid
// everywhere and records nothing, so instrumented code needs no
// "is profiling enabled" branches.
package prof

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Retention bounds.
const (
	// sampleRing bounds the flight recorder's retained runtime samples:
	// one minute at the default 250ms period.
	sampleRing = 240
	// maxSites bounds the contended-site lists extracted from the mutex
	// and block profiles.
	maxSites = 8
)

// Config controls the profiler.
type Config struct {
	// SampleEvery is the background runtime-sampler period; 0 defaults to
	// 250ms. Negative disables the background goroutine entirely — samples
	// are then taken only by explicit Sample calls (tests, audits) and by
	// /prof.json scrapes and flight dumps.
	SampleEvery time.Duration
	// MutexFraction is passed to runtime.SetMutexProfileFraction: 1/n of
	// contention events are sampled. 0 defaults to 100; negative leaves the
	// process-global runtime setting untouched (for callers that own it).
	MutexFraction int
	// BlockRateNS is passed to runtime.SetBlockProfileRate: one blocking
	// event is sampled per this many nanoseconds blocked. 0 defaults to
	// 100µs; negative leaves the runtime setting untouched.
	BlockRateNS int
	// CountAllocs adds per-stage allocation counts to request records.
	// The counter is process-global, so the numbers are only meaningful
	// when requests run serialized — the observability self-audit does;
	// a loaded fleet does not. Off by default.
	CountAllocs bool
	// Telemetry, when non-nil, receives the go_* runtime series a /metrics
	// scrape also refreshes and the prof_* series New registers: runtime
	// deltas, GC pauses, per-stage prof_stage_seconds{stage=...} costs and
	// the profiler's own cost.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives the profiler's structured events:
	// prof.start (info, at construction), prof.sample (debug, per sampler
	// tick), and prof.flight.dump (warn, per flight-recorder dump).
	Events *eventlog.Logger
	// Spans is the request ring a flight dump ships as its "requests":
	// pass the log the fleet, server or detector records into. Nil dumps
	// an empty list.
	Spans *telemetry.SpanLog
	// FlightExtra, when non-nil, is invoked at every flight dump and its
	// result embedded in the dump's "extra" field — subsystem state worth
	// shipping with a page (csdload wires the detection-quality
	// scorecard's Snapshot here, so a recall-burn page carries the
	// confusion matrix that burned it). The callback must be safe to call
	// from any goroutine.
	FlightExtra func() any
	// Clock overrides time.Now for sample timestamps in tests. Durations
	// (stage costs, sampler cost) always use the monotonic host clock.
	Clock func() time.Time
}

func (c *Config) defaults() {
	if c.SampleEvery == 0 {
		c.SampleEvery = 250 * time.Millisecond
	}
	if c.MutexFraction == 0 {
		c.MutexFraction = 100
	}
	if c.BlockRateNS == 0 {
		c.BlockRateNS = 100_000
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// Sample is one runtime-sampler observation: instantaneous runtime state
// plus the deltas accumulated since the previous sample.
type Sample struct {
	// Time stamps the sample.
	Time time.Time `json:"time"`
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// HeapAllocBytes and HeapObjects are the live heap at sample time.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	// AllocBytes and Mallocs are cumulative-allocation deltas since the
	// previous sample (zero on the first).
	AllocBytes uint64 `json:"alloc_bytes_delta"`
	Mallocs    uint64 `json:"mallocs_delta"`
	// GCCycles and GCPauses are the completed-GC and GC stop-the-world
	// pause deltas since the previous sample; prof_gc_pause_seconds holds
	// the pauses' durations.
	GCCycles uint32 `json:"gc_cycles_delta"`
	GCPauses uint64 `json:"gc_pauses_delta"`
	// TopMutex and TopBlock are the most contended sites from the
	// cumulative runtime mutex/block profiles, ranked by cycles (ties
	// broken by site label, so the ordering is deterministic).
	TopMutex []SiteCount `json:"top_mutex,omitempty"`
	TopBlock []SiteCount `json:"top_block,omitempty"`
	// CostNS is what taking this sample cost the host — the profiler
	// auditing itself.
	CostNS int64 `json:"cost_ns"`
}

// Profiler is the continuous profiler. All methods are safe for concurrent
// use and valid on a nil receiver (recording nothing).
type Profiler struct {
	cfg Config

	// mu guards the sampler state: the previous runtime read for deltas
	// (zero before the first), the pause-count buffer the next read
	// reuses, and the sample ring.
	mu        sync.Mutex
	prev      telemetry.RuntimeStats
	spare     []uint64
	prevMutex int // SetMutexProfileFraction value to restore at Close
	ring      telemetry.Ring[Sample]
	samples   int64
	dumps     int64

	heapObjG  *telemetry.Gauge
	allocC    *telemetry.Counter
	mallocsC  *telemetry.Counter
	gcC       *telemetry.Counter
	pauseH    *telemetry.Histogram
	costH     *telemetry.Histogram
	stageH    [telemetry.NumStages]*telemetry.Histogram
	requestH  *telemetry.Histogram
	requestsC *telemetry.Counter
	dumpsC    *telemetry.Counter

	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a profiler, enables the runtime contention profiles (per
// Config.MutexFraction / BlockRateNS), and — unless SampleEvery is negative
// — starts the background sampler goroutine. Close stops the goroutine and
// restores the previous mutex-profile fraction.
func New(cfg Config) (*Profiler, error) {
	cfg.defaults()
	p := &Profiler{
		cfg:  cfg,
		ring: telemetry.NewRing[Sample](sampleRing),
		quit: make(chan struct{}),
	}
	reg := cfg.Telemetry
	p.heapObjG = reg.Gauge("prof_heap_objects", "Live heap objects at the last runtime sample.")
	p.allocC = reg.Counter("prof_alloc_bytes_total", "Cumulative bytes allocated, accumulated across runtime samples.")
	p.mallocsC = reg.Counter("prof_mallocs_total", "Cumulative heap allocations, accumulated across runtime samples.")
	p.gcC = reg.Counter("prof_gc_cycles_total", "Completed garbage-collection cycles, accumulated across runtime samples.")
	p.pauseH = reg.Histogram("prof_gc_pause_seconds",
		"GC stop-the-world pauses seen by the runtime sampler, at the runtime histogram's bucket resolution.", telemetry.Buckets{})
	p.costH = reg.Histogram("prof_sample_cost_seconds",
		"Host cost of taking one runtime sample — the profiler auditing itself.", telemetry.Buckets{})
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		p.stageH[s] = reg.Histogram("prof_stage_seconds",
			"Host wall-clock cost per request, attributed to pipeline stages.",
			telemetry.Buckets{}, telemetry.L("stage", s.String()))
	}
	p.requestH = reg.Histogram("prof_request_wall_seconds",
		"Total attributed host wall-clock cost per request.", telemetry.Buckets{})
	p.requestsC = reg.Counter("prof_requests_total", "Request records aggregated.")
	p.dumpsC = reg.Counter("prof_flight_dumps_total", "Flight-recorder dumps written.")

	if cfg.MutexFraction > 0 {
		p.prevMutex = runtime.SetMutexProfileFraction(cfg.MutexFraction)
	} else {
		p.prevMutex = runtime.SetMutexProfileFraction(-1) // read without changing
	}
	if cfg.BlockRateNS > 0 {
		runtime.SetBlockProfileRate(cfg.BlockRateNS)
	}
	cfg.Events.Info(context.Background(), "prof", "prof.start",
		eventlog.F("sample_every_ns", cfg.SampleEvery),
		eventlog.F("ring", sampleRing),
		eventlog.F("mutex_fraction", cfg.MutexFraction),
		eventlog.F("block_rate_ns", cfg.BlockRateNS))
	if cfg.SampleEvery > 0 {
		p.wg.Add(1)
		go p.loop()
	}
	return p, nil
}

// loop is the background sampler.
func (p *Profiler) loop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.SampleEvery)
	defer t.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-t.C:
			p.Sample()
		}
	}
}

// Sample takes one runtime sample immediately: reads the runtime and the
// contention profiles, updates the go_* and prof_* series, appends to the
// flight recorder, and returns the sample. Nothing in it stops the world.
// Safe to call concurrently with the background sampler; a nil profiler
// returns the zero Sample.
func (p *Profiler) Sample() Sample {
	if p == nil {
		return Sample{}
	}
	start := time.Now()
	p.mu.Lock()
	rt := telemetry.ReadRuntime(p.cfg.Telemetry, p.spare)
	s := Sample{
		Time:           p.cfg.Clock(),
		Goroutines:     int(rt.Goroutines),
		HeapAllocBytes: rt.HeapBytes,
		HeapObjects:    rt.HeapObjects,
	}
	if p.prev.Pauses != nil {
		s.AllocBytes = rt.AllocBytes - p.prev.AllocBytes
		s.Mallocs = rt.Mallocs - p.prev.Mallocs
		s.GCCycles = uint32(rt.GCCycles - p.prev.GCCycles)
		for i, n := range rt.Pauses {
			n -= p.prev.Pauses[i]
			s.GCPauses += n
			for ; n > 0; n-- {
				p.pauseH.Observe(pauseNS(rt.PauseBuckets, i))
			}
		}
	}
	p.spare, p.prev = p.prev.Pauses, rt
	s.TopMutex = topSites(runtime.MutexProfile)
	s.TopBlock = topSites(runtime.BlockProfile)
	s.CostNS = int64(time.Since(start))
	p.samples++
	p.ring.Put(s)
	p.mu.Unlock()

	p.heapObjG.Set(int64(s.HeapObjects))
	p.allocC.Add(int64(s.AllocBytes))
	p.mallocsC.Add(int64(s.Mallocs))
	p.gcC.Add(int64(s.GCCycles))
	p.costH.Observe(s.CostNS)
	if p.cfg.Events.Enabled(eventlog.LevelDebug) {
		p.cfg.Events.Debug(context.Background(), "prof", "prof.sample",
			eventlog.F("goroutines", s.Goroutines),
			eventlog.F("heap_alloc_bytes", s.HeapAllocBytes),
			eventlog.F("gc_cycles_delta", s.GCCycles),
			eventlog.F("cost_ns", s.CostNS))
	}
	return s
}

// pauseNS is the duration a pause in bucket i of the runtime's pause
// histogram is recorded as: the bucket's upper bound, or its lower bound
// for the open-ended last bucket.
func pauseNS(bounds []float64, i int) int64 {
	b := bounds[i+1]
	if math.IsInf(b, 1) {
		b = bounds[i]
	}
	return int64(b * 1e9)
}

// Open marks a freshly created request record as profiled: it stamps the
// admission time and starts the record's stage timers (counting
// allocations when Config.CountAllocs is set). The layer that creates a
// record opens it; a nil profiler leaves the timers off.
func (p *Profiler) Open(rec *telemetry.Span) {
	if p == nil {
		return
	}
	rec.Profile(p.cfg.Clock(), p.cfg.CountAllocs)
}

// Record aggregates a completed request record's stage costs into the
// per-stage and per-request histograms. The layer that created the record
// calls it once; layers handed a caller's record leave it to the caller.
// The record itself is retained by the SpanLog its creator adds it to.
func (p *Profiler) Record(rec *telemetry.Span) {
	if p == nil || rec == nil {
		return
	}
	var total int64
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		if w := int64(rec.Wall(s)); w != 0 {
			total += w
			p.stageH[s].Observe(w)
		}
	}
	p.requestH.Observe(total)
	p.requestsC.Inc()
}

// Close stops the background sampler and restores the mutex-profile
// fraction that was in effect before New (the block-profile rate is set
// back to 0, the runtime default). Close is idempotent-safe only for a
// single call; the profiler is done after it.
func (p *Profiler) Close() error {
	if p == nil {
		return nil
	}
	close(p.quit)
	p.wg.Wait()
	if p.cfg.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(p.prevMutex)
	}
	if p.cfg.BlockRateNS > 0 {
		runtime.SetBlockProfileRate(0)
	}
	return nil
}
