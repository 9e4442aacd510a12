// Package eventlog is the domain-event layer of the observability stack:
// structured, leveled JSON-lines events with cross-layer correlation IDs.
//
// Metrics (internal/telemetry) answer "how much / how fast", the device
// timeline (internal/trace) answers "where did the cycles go", but neither
// records *what happened* — which process alerted, which model generation
// was live, why a request was rejected. SHIELD (arXiv:2501.16619) argues a
// detector's output must be auditable to be deployable; this package gives
// every layer of the serving stack a shared, append-only event stream a SOC
// can tail, filter, and correlate.
//
// A Logger fans events out to pluggable Sinks (a JSON-lines file, a test
// capture, a network forwarder) through per-sink bounded queues: emission
// never blocks on a slow sink, dropped events are counted per sink instead.
// The most recent events are additionally retained in a fixed in-memory
// ring served at /events.json (see HTTPHandler).
//
// Correlation: an event emitted with a context that carries a request
// record (telemetry.WithSpan) is stamped with the record's trace job ID
// (Span.ID, which the scheduler allocates per request), so one `jq` pass
// joins the event stream against /spans.json and the Chrome trace export. Events may also carry a process attribution (PID) for the
// per-process detection mux.
//
// A nil *Logger is valid everywhere and records nothing, matching the
// optional-instrumentation convention of telemetry and trace.
package eventlog

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Level is an event severity.
type Level int8

// Severities, in escalating order. The zero value is reserved so that an
// unset configuration can default (to LevelInfo).
const (
	LevelDebug Level = iota + 1
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("Level(%d)", int8(l))
	}
}

// ParseLevel parses a level name as accepted by command-line flags.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return 0, fmt.Errorf("eventlog: unknown level %q (want debug, info, warn, error)", s)
	}
}

// Field is one structured key/value attribute of an event. Values are
// rendered by the JSON-lines encoder (see Event.AppendJSON): strings,
// booleans, integers, floats, time.Duration (as integer nanoseconds —
// name duration keys *_ns), time.Time (RFC 3339), and errors all encode
// natively; anything else falls back to its fmt.Sprintf("%v") string.
type Field struct {
	Key   string
	Value any
}

// F is shorthand for building a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one structured log record.
type Event struct {
	// Seq is the logger-assigned sequence number (1, 2, 3, ...); gaps after
	// level filtering never occur because filtered events are not assigned
	// one.
	Seq int64
	// Time is the emission timestamp.
	Time time.Time
	// Level is the severity.
	Level Level
	// Component names the emitting layer ("serve", "engine", "csd",
	// "detect", "cti", "incident", ...).
	Component string
	// Name is the dot-scoped event name within the component, e.g.
	// "window.classified" or "queue.full".
	Name string
	// Job is the trace correlation ID of the request record carried by the
	// emitting context (telemetry.Span.ID); 0 means unattributed. The same
	// ID appears on the request's timeline events.
	Job int64
	// PID attributes the event to a monitored process; 0 means none.
	PID int
	// Device attributes the event to a registry device (internal/device
	// IDs, e.g. "csd-000"); empty means none. The same ID labels the
	// device's telemetry series and names its trace tracks.
	Device string
	// Fields are the event's structured attributes, in emission order.
	Fields []Field
}

// Config controls a Logger.
type Config struct {
	// MinLevel is the lowest severity recorded; 0 defaults to LevelInfo.
	MinLevel Level
	// Ring bounds the in-memory ring of recent events; 0 defaults to 512.
	Ring int
	// SinkBuffer bounds each attached sink's queue; 0 defaults to 1024.
	// When a sink's queue is full the event is dropped for that sink (and
	// counted), never blocking the emitting goroutine.
	SinkBuffer int
	// Clock overrides the timestamp source (tests); nil uses time.Now.
	Clock func() time.Time
}

func (c *Config) defaults() {
	if c.MinLevel == 0 {
		c.MinLevel = LevelInfo
	}
	if c.Ring <= 0 {
		c.Ring = 512
	}
	if c.SinkBuffer <= 0 {
		c.SinkBuffer = 1024
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// Logger is a concurrency-safe structured event logger. All methods are
// safe for concurrent use; a nil *Logger ignores everything.
type Logger struct {
	cfg Config

	min   atomic.Int32
	seq   atomic.Int64
	total atomic.Int64 // events past the level filter

	mu   sync.Mutex
	ring []Event
	next int

	sinkMu sync.Mutex
	sinks  []*attachedSink
	closed bool
	// finalStats preserves the delivery counters of sinks detached by
	// Close, so SinkStats stays meaningful after shutdown.
	finalStats []SinkStats
}

// New builds a logger from the configuration.
func New(cfg Config) *Logger {
	cfg.defaults()
	l := &Logger{cfg: cfg, ring: make([]Event, 0, cfg.Ring)}
	l.min.Store(int32(cfg.MinLevel))
	return l
}

// SetLevel changes the minimum recorded severity at runtime.
func (l *Logger) SetLevel(lvl Level) {
	if l == nil {
		return
	}
	l.min.Store(int32(lvl))
}

// Enabled reports whether events at lvl would be recorded — hot paths use
// it to skip building field payloads entirely.
func (l *Logger) Enabled(lvl Level) bool {
	if l == nil {
		return false
	}
	return int32(lvl) >= l.min.Load()
}

// Log records one event. The context supplies the trace correlation ID
// (if any); component and name identify the emitter; fields carry the
// structured payload. Use the level helpers (Debug, Info, Warn, Error)
// at call sites.
func (l *Logger) Log(ctx context.Context, lvl Level, component, name string, fields ...Field) {
	l.emit(ctx, lvl, component, name, 0, "", fields)
}

// LogPID is Log with a process attribution.
func (l *Logger) LogPID(ctx context.Context, lvl Level, component, name string, pid int, fields ...Field) {
	l.emit(ctx, lvl, component, name, pid, "", fields)
}

// LogDevice is Log with a device attribution — the registry ID of the
// drive the event concerns (lifecycle edges, placement decisions,
// per-device scheduling).
func (l *Logger) LogDevice(ctx context.Context, lvl Level, component, name, device string, fields ...Field) {
	l.emit(ctx, lvl, component, name, 0, device, fields)
}

// Debug records a debug-level event.
func (l *Logger) Debug(ctx context.Context, component, name string, fields ...Field) {
	l.emit(ctx, LevelDebug, component, name, 0, "", fields)
}

// Info records an info-level event.
func (l *Logger) Info(ctx context.Context, component, name string, fields ...Field) {
	l.emit(ctx, LevelInfo, component, name, 0, "", fields)
}

// Warn records a warn-level event.
func (l *Logger) Warn(ctx context.Context, component, name string, fields ...Field) {
	l.emit(ctx, LevelWarn, component, name, 0, "", fields)
}

// Error records an error-level event.
func (l *Logger) Error(ctx context.Context, component, name string, fields ...Field) {
	l.emit(ctx, LevelError, component, name, 0, "", fields)
}

func (l *Logger) emit(ctx context.Context, lvl Level, component, name string, pid int, device string, fields []Field) {
	if !l.Enabled(lvl) {
		return
	}
	ev := Event{
		Seq:       l.seq.Add(1),
		Time:      l.cfg.Clock(),
		Level:     lvl,
		Component: component,
		Name:      name,
		PID:       pid,
		Device:    device,
		Fields:    fields,
	}
	if ctx != nil {
		ev.Job = telemetry.SpanFrom(ctx).Job()
	}
	l.total.Add(1)

	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.next] = ev
		l.next = (l.next + 1) % len(l.ring)
	}
	l.mu.Unlock()

	l.sinkMu.Lock()
	sinks := l.sinks
	l.sinkMu.Unlock()
	for _, s := range sinks {
		select {
		case s.queue <- ev:
		default:
			s.dropped.Add(1)
		}
	}
}

// Recent returns the retained ring of events, oldest first.
func (l *Logger) Recent() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Total counts all events recorded past the level filter, including those
// evicted from the ring.
func (l *Logger) Total() int64 {
	if l == nil {
		return 0
	}
	return l.total.Load()
}

// Attach registers a sink under the given name and starts its delivery
// goroutine. buffer bounds the sink's private queue (<=0 takes
// Config.SinkBuffer); when full, events are dropped for this sink only.
// Events already emitted are not replayed. Attaching to a nil or closed
// logger is a no-op.
func (l *Logger) Attach(name string, s Sink, buffer int) {
	if l == nil || s == nil {
		return
	}
	if buffer <= 0 {
		buffer = l.cfg.SinkBuffer
	}
	l.sinkMu.Lock()
	defer l.sinkMu.Unlock()
	if l.closed {
		return
	}
	as := &attachedSink{name: name, sink: s, queue: make(chan Event, buffer)}
	as.done.Add(1)
	go as.run()
	l.sinks = append(l.sinks, as)
}

// Close stops delivery: every queued event is flushed to its sink, sink
// goroutines exit, and sinks that implement io.Closer are closed. Close
// is idempotent; emission after Close still feeds the in-memory ring but
// reaches no sink.
func (l *Logger) Close() error {
	if l == nil {
		return nil
	}
	l.sinkMu.Lock()
	sinks := l.sinks
	l.sinks = nil
	l.closed = true
	l.sinkMu.Unlock()
	var first error
	for _, s := range sinks {
		close(s.queue)
		s.done.Wait()
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	if len(sinks) > 0 {
		final := statsOf(sinks)
		l.sinkMu.Lock()
		l.finalStats = append(l.finalStats, final...)
		l.sinkMu.Unlock()
	}
	return first
}

// SinkStats describes one attached sink's delivery counters.
type SinkStats struct {
	// Name is the label the sink was attached under.
	Name string `json:"name"`
	// Written counts events delivered to the sink.
	Written int64 `json:"written"`
	// Dropped counts events discarded because the sink's queue was full —
	// the non-blocking backpressure policy.
	Dropped int64 `json:"dropped"`
	// Errors counts WriteEvent failures (the event is counted written).
	Errors int64 `json:"errors,omitempty"`
}

// SinkStats returns per-sink delivery counters, in attachment order. Sinks
// detached by Close keep their final counters.
func (l *Logger) SinkStats() []SinkStats {
	if l == nil {
		return nil
	}
	l.sinkMu.Lock()
	sinks := append([]*attachedSink(nil), l.sinks...)
	out := append([]SinkStats(nil), l.finalStats...)
	l.sinkMu.Unlock()
	return append(out, statsOf(sinks)...)
}

func statsOf(sinks []*attachedSink) []SinkStats {
	out := make([]SinkStats, len(sinks))
	for i, s := range sinks {
		out[i] = SinkStats{
			Name:    s.name,
			Written: s.written.Load(),
			Dropped: s.dropped.Load(),
			Errors:  s.errors.Load(),
		}
	}
	return out
}
