package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Canonical pipeline phase names, in request order: time waiting in a
// device queue, SSD→FPGA data movement, FPGA kernel execution, and the
// detector's verdict logic.
const (
	PhaseQueue    = "queue"
	PhaseTransfer = "transfer"
	PhaseCompute  = "compute"
	PhaseVerdict  = "verdict"
)

// Phase is one recorded stage of a request's pipeline.
type Phase struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// Stage names one segment of a request's host-side pipeline, in request
// order. The stages cover where a request's wall-clock actually goes on the
// host: scheduler queueing, sequence encoding, the (simulated) DMA
// bookkeeping, the kernel-model compute, the detector's verdict logic, and
// the cost of recording telemetry/trace/eventlog — observability pricing
// itself.
type Stage uint8

const (
	// StageQueue is serve-layer residency: enqueue to worker dispatch.
	StageQueue Stage = iota
	// StageEncode is the host-side sequence serialization (core/csd).
	StageEncode
	// StageTransfer is the host cost of the staged transfer — buffer writes
	// and the simulated DMA bookkeeping, not the simulated device time.
	StageTransfer
	// StageCompute is the host cost of running the kernel pipeline model
	// (decode + classify).
	StageCompute
	// StageVerdict is the detector's threshold/mitigation logic.
	StageVerdict
	// StageObserve is the cost of observability itself: telemetry
	// observations, span records, trace emissions, and event-log calls made
	// on behalf of the request.
	StageObserve

	// NumStages counts the stages.
	NumStages
)

var stageNames = [NumStages]string{
	"queue", "encode", "transfer", "compute", "verdict", "observe",
}

// String returns the stage's label ("queue", "encode", ...).
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Span is the one record of a request as it descends the stack. The layer
// that admits the request creates it and stashes it in the context; each
// layer below fills in its part: the scheduler the job ID, device and queue
// wait, the engine transfer and compute, the detector the verdict. When a
// profiler opened the record (Profile), each layer also attributes its host
// wall time (and, in serialized audits, allocations) to a Stage.
//
// Ownership: the layer that created the record flushes it to every sink it
// has (SpanLog.Add, the profiler's Record). A layer handed a caller's record
// fills it in and flushes nothing.
//
// Each stage hands the request to the next through a channel or call, so
// Span needs no lock — it is NOT safe for truly concurrent writers,
// matching the one-stage-at-a-time life of a request. Record, Add, Begin,
// Wall, Allocs and Job accept a nil *Span (recording nothing), so
// instrumented layers need no "is anyone observing" branches.
type Span struct {
	// Name identifies the request kind (e.g. "window", "stored-scan").
	Name string `json:"name"`
	// ID is the trace correlation ID shared with the request's timeline
	// events and structured events when tracing is on (the scheduler
	// allocates it per request); 0 otherwise.
	ID int64 `json:"id,omitempty"`
	// Device is the serving device that executed the request, stamped by
	// the scheduler at dispatch (its device index as a string); empty when
	// the request never went through a scheduler.
	Device string `json:"device,omitempty"`
	// Phases are the recorded stages in arrival order. Queue wait is wall
	// time; transfer and compute are simulated device time (see the package
	// comment).
	Phases []Phase `json:"phases"`

	// phases backs Phases, so the usual four phases need no allocation.
	phases [4]Phase

	admitted    time.Time
	profiled    bool
	countAllocs bool
	wall        [NumStages]int64
	allocs      [NumStages]int64
}

// Record appends one phase.
func (s *Span) Record(phase string, d time.Duration) {
	if s == nil {
		return
	}
	if s.Phases == nil {
		s.Phases = s.phases[:0]
	}
	s.Phases = append(s.Phases, Phase{Name: phase, Duration: d})
}

// detach points Phases at the span's inline array, so a Span copied by value
// stops sharing phase storage with the original.
func (s *Span) detach() {
	if s.Phases != nil {
		s.Phases = append(s.phases[:0], s.Phases...)
	}
}

// Job returns the trace correlation ID (0 for a nil span).
func (s *Span) Job() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// Total sums all recorded phases.
func (s *Span) Total() time.Duration {
	var t time.Duration
	for _, p := range s.Phases {
		t += p.Duration
	}
	return t
}

// String renders the span on one line: "window: queue=1.2µs transfer=39µs
// compute=215µs verdict=90ns (total 255µs)".
func (s *Span) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if s.ID != 0 {
		fmt.Fprintf(&b, "#%d", s.ID)
	}
	b.WriteString(":")
	for _, p := range s.Phases {
		fmt.Fprintf(&b, " %s=%s", p.Name, p.Duration)
	}
	fmt.Fprintf(&b, " (total %s)", s.Total())
	return b.String()
}

// MarshalJSON writes the record with both clocks side by side: name, id,
// device and the simulated phases as an unprofiled record always had them,
// then — once a profiler opened it — the admission time, the host wall ns
// of each stage that ran ("stage_ns") and, when allocations were counted,
// their per-stage counts ("stage_allocs").
func (s Span) MarshalJSON() ([]byte, error) {
	w := struct {
		Name        string          `json:"name"`
		ID          int64           `json:"id,omitempty"`
		Device      string          `json:"device,omitempty"`
		Phases      []Phase         `json:"phases"`
		Admitted    *time.Time      `json:"admitted,omitempty"`
		StageNS     json.RawMessage `json:"stage_ns,omitempty"`
		StageAllocs json.RawMessage `json:"stage_allocs,omitempty"`
	}{Name: s.Name, ID: s.ID, Device: s.Device, Phases: s.Phases}
	if s.profiled {
		w.Admitted, w.StageNS = &s.admitted, s.stageJSON(&s.wall)
		if s.countAllocs {
			w.StageAllocs = s.stageJSON(&s.allocs)
		}
	}
	return json.Marshal(w)
}

// stagesByName orders the stages by name: the key order encoding/json
// gives a map, which stage_ns and stage_allocs have on the wire.
var stagesByName = func() (order [NumStages]Stage) {
	for i := range order {
		order[i] = Stage(i)
	}
	slices.SortFunc(order[:], func(a, b Stage) int { return strings.Compare(a.String(), b.String()) })
	return order
}()

// stageJSON returns a JSON object holding vals for each stage that ran
// (spent wall time or allocated), keyed by stage name, or nil when no stage
// ran.
func (s *Span) stageJSON(vals *[NumStages]int64) []byte {
	var b []byte
	for _, st := range stagesByName {
		if s.wall[st] == 0 && s.allocs[st] == 0 {
			continue
		}
		if b == nil {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), st.String()...), '"', ':')
		b = strconv.AppendInt(b, vals[st], 10)
	}
	if b == nil {
		return nil
	}
	return append(b, '}')
}

// Profile turns on per-stage host-cost attribution for a request admitted
// at the given time; countAllocs adds per-stage allocation counts. Until it
// is called, Begin, End and Add record nothing.
func (s *Span) Profile(admitted time.Time, countAllocs bool) {
	if s == nil {
		return
	}
	s.admitted, s.profiled, s.countAllocs = admitted, true, countAllocs
}

// Add attributes d to the stage, accumulating across calls.
func (s *Span) Add(st Stage, d time.Duration) {
	if s == nil || !s.profiled || st >= NumStages {
		return
	}
	s.wall[st] += int64(d)
}

// Wall returns the accumulated host wall time of a stage.
func (s *Span) Wall(st Stage) time.Duration {
	if s == nil || st >= NumStages {
		return 0
	}
	return time.Duration(s.wall[st])
}

// Allocs returns the accumulated allocation count of a stage (zero unless
// the record was profiled with allocation counting).
func (s *Span) Allocs(st Stage) int64 {
	if s == nil || st >= NumStages {
		return 0
	}
	return s.allocs[st]
}

// StageTimer measures one stage interval. It is a value type: Begin/End
// pairs cost two clock reads and no allocation, cheap enough for the
// request hot path.
type StageTimer struct {
	s  *Span
	st Stage
	t0 time.Time
	a0 uint64
}

// Begin starts timing a stage. On a nil or unprofiled span the returned
// timer is inert and End is free — instrumentation sites need no branches.
func (s *Span) Begin(st Stage) StageTimer {
	if s == nil || !s.profiled || st >= NumStages {
		return StageTimer{}
	}
	t := StageTimer{s: s, st: st, t0: time.Now()}
	if s.countAllocs {
		t.a0 = mallocs()
	}
	return t
}

// End stops the timer and attributes the elapsed interval (and, when alloc
// counting is on, the allocation delta) to the stage.
func (t StageTimer) End() {
	if t.s == nil {
		return
	}
	t.s.wall[t.st] += int64(time.Since(t.t0))
	if t.s.countAllocs {
		t.s.allocs[t.st] += int64(mallocs() - t.a0)
	}
}

type spanCtxKey struct{}

// WithSpan returns a context carrying the request record, so lower layers
// (scheduler, engine, event log) can fill it in and read its job ID without
// the Inferencer interface knowing about telemetry.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SpanLog retains the most recent completed spans in a Ring — enough to
// answer "what did the last requests spend their time on" without
// unbounded memory. A nil *SpanLog ignores Add, so callers can thread an
// optional log without branching.
type SpanLog struct {
	mu    sync.Mutex
	ring  Ring[Span]
	total int64
}

// NewSpanLog builds a log retaining the last capacity spans (<=0: 128).
func NewSpanLog(capacity int) *SpanLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &SpanLog{ring: NewRing[Span](capacity)}
}

// Add appends a completed span, evicting the oldest when full.
func (l *SpanLog) Add(s Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	l.ring.Put(s).detach()
}

// Snapshot returns the retained spans, oldest first.
func (l *SpanLog) Snapshot() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.ring.Values()
	for i := range out {
		out[i].detach()
	}
	return out
}

// Total counts all spans ever added, including evicted ones.
func (l *SpanLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
