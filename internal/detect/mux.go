package detect

import (
	"context"
	"errors"
	"fmt"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// MaxProcesses bounds the processes a Mux tracks; past it, the least
// recently seen process's state is evicted.
const MaxProcesses = 64

// Mux demultiplexes a system-wide API-call stream into per-process
// detectors. Cuckoo-style monitoring reports calls per process, and
// ransomware typically runs as its own process tree; classifying each
// process's stream separately keeps one noisy benign process from diluting
// an infected one's window (and matches how the paper's traces were
// captured: "all API calls that were made, in the order in which they
// would be observed on a system housing a CSD").
//
// Mux is not safe for concurrent use, mirroring the single ingest stream
// of the device.
type Mux struct {
	pred Predictor
	cfg  Config

	// procs holds each tracked process's record, at most MaxProcesses.
	procs map[int]*process
	clock int64

	blockedPID int
	blocked    bool

	onEvict func(pid int)
	events  *eventlog.Logger

	evictionsC *telemetry.Counter
	processesG *telemetry.Gauge
}

// process is the mux's record of one tracked process: its detector and
// the mux clock at its latest call, which is unique per process.
type process struct {
	det      *Detector
	lastSeen int64
}

// MuxConfig controls the demultiplexer.
type MuxConfig struct {
	// Detector is the per-process detector configuration. Its OnWindow
	// observer and Events logger are inherited by every per-process child,
	// with samples and events carrying the child's PID.
	Detector Config
	// OnEvict, when non-nil, is invoked with the PID whose detector state
	// was just evicted under the MaxProcesses cap — wire
	// incident.Recorder.Evict here so an open incident for the process is
	// closed rather than silently merged with a later reappearance.
	OnEvict func(pid int)
}

// NewMux builds a per-process detector demultiplexer over the predictor.
func NewMux(pred Predictor, cfg MuxConfig) (*Mux, error) {
	if pred == nil {
		return nil, errors.New("detect: nil predictor")
	}
	// Validate the detector configuration eagerly with a probe detector.
	if _, err := New(pred, cfg.Detector); err != nil {
		return nil, err
	}
	reg := cfg.Detector.Telemetry
	return &Mux{
		pred:    pred,
		cfg:     cfg.Detector,
		procs:   make(map[int]*process),
		onEvict: cfg.OnEvict,
		events:  cfg.Detector.Events,
		evictionsC: reg.Counter("mux_evictions_total",
			"Per-process detector states evicted under the process cap."),
		processesG: reg.Gauge("mux_processes",
			"Processes with live detector state."),
	}, nil
}

// ProcessEvent is a classified window attributed to a process.
type ProcessEvent struct {
	PID int
	Event
}

// Observe routes one API call of the given process. When mitigation fires
// for any process, the whole mux latches blocked (the device-level write
// quarantine is global).
func (m *Mux) Observe(ctx context.Context, pid, apiCallID int) (*ProcessEvent, error) {
	if m.blocked {
		return nil, ErrBlocked
	}
	m.clock++
	p, ok := m.procs[pid]
	if !ok {
		if len(m.procs) >= MaxProcesses {
			m.evictIdlest(ctx)
		}
		det, err := New(m.pred, m.cfg)
		if err != nil {
			return nil, fmt.Errorf("detect: process %d: %w", pid, err)
		}
		det.pid = pid
		p = &process{det: det}
		m.procs[pid] = p
		m.processesG.Set(int64(len(m.procs)))
		m.events.LogPID(ctx, eventlog.LevelDebug, "detect", "process.track", pid,
			eventlog.F("tracked", len(m.procs)))
	}
	p.lastSeen = m.clock

	// Each monitored process is a placement tenant: the fleet layer pins a
	// tenant's windows to one device, keeping a process's classification
	// stream (and its per-device trace timeline) together.
	if infer.TenantFrom(ctx) == "" {
		ctx = infer.WithTenant(ctx, fmt.Sprintf("pid-%d", pid))
	}
	ev, err := p.det.Observe(ctx, apiCallID)
	if err != nil {
		return nil, fmt.Errorf("detect: process %d: %w", pid, err)
	}
	if ev == nil {
		return nil, nil
	}
	out := &ProcessEvent{PID: pid, Event: *ev}
	if ev.Action == ActionBlock {
		m.blocked = true
		m.blockedPID = pid
	}
	return out, nil
}

// evictIdlest drops the least recently seen process, found in one scan.
// The caller's ctx is threaded through so the eviction event keeps the
// trace job ID of the API call that forced it — that correlation is what
// lets incident forensics explain why a process's history was truncated.
func (m *Mux) evictIdlest(ctx context.Context) {
	victim, oldest := 0, m.clock
	for pid, p := range m.procs {
		if p.lastSeen < oldest {
			victim, oldest = pid, p.lastSeen
		}
	}
	delete(m.procs, victim)
	m.evictionsC.Inc()
	m.processesG.Set(int64(len(m.procs)))
	m.events.LogPID(ctx, eventlog.LevelInfo, "detect", "process.evict", victim,
		eventlog.F("tracked", len(m.procs)))
	if m.onEvict != nil {
		m.onEvict(victim)
	}
}

// Blocked reports whether mitigation has fired, and for which process.
func (m *Mux) Blocked() (bool, int) { return m.blocked, m.blockedPID }

// Processes returns the number of currently tracked processes.
func (m *Mux) Processes() int { return len(m.procs) }

// ProcessStats returns the per-process detector statistics.
func (m *Mux) ProcessStats() map[int]Stats {
	out := make(map[int]Stats, len(m.procs))
	for pid, p := range m.procs {
		out[pid] = p.det.Stats()
	}
	return out
}
