// Package detect implements the paper's ransomware use case (§IV): a
// streaming detector that watches the live API-call stream of the system
// housing the CSD, maintains a sliding window, classifies each fully-formed
// window on the in-storage engine, and triggers mitigation "directly within
// the CSD" — quarantining writes before encryption can proceed.
package detect

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Predictor classifies a fully-formed window. It is the stack-wide
// inference contract: a single CSD engine (core.Engine), a multi-device
// fleet (fleet.Fleet), the concurrent serving layer (serve.Server), and the
// hot-swappable maintenance engine (cti.HotSwapEngine) all satisfy it;
// tests may substitute fakes.
type Predictor = infer.Inferencer

// Action is the detector's response to a classified window.
type Action int

// Actions, in escalating order.
const (
	// ActionNone: window classified benign.
	ActionNone Action = iota + 1
	// ActionAlert: a window crossed the probability threshold.
	ActionAlert
	// ActionBlock: enough consecutive alerts accumulated to trigger
	// in-storage mitigation (write quarantine).
	ActionBlock
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionAlert:
		return "alert"
	case ActionBlock:
		return "block"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Event describes one classified window.
type Event struct {
	// CallIndex is the index of the API call that completed the window.
	CallIndex int64
	// Probability is the classifier's ransomware probability.
	Probability float64
	// Action is the detector's response.
	Action Action
}

// WindowSample is one classified window with its full pipeline attribution
// — the forensic feed consumed by the incident recorder
// (internal/incident) and by Config.OnWindow observers.
type WindowSample struct {
	// PID is the monitored process (0 for a bare Detector outside a Mux).
	PID int
	// Time is when the verdict was produced.
	Time time.Time
	// CallIndex is the index of the API call that completed the window.
	CallIndex int64
	// Probability is the classifier's ransomware probability.
	Probability float64
	// Action is the detector's response.
	Action Action
	// Job is the trace correlation ID the scheduler assigned the
	// classification request (0 when tracing is off); the same ID appears
	// on the request's telemetry.Span, its timeline events, and any
	// eventlog events it emitted.
	Job int64
	// Device is the serving device that executed the classification (the
	// scheduler's device index as a string); empty without a scheduler.
	Device string
	// QueueWait, Transfer, and Compute are the request's recorded pipeline
	// phases (zero when the corresponding layer is not instrumented).
	QueueWait time.Duration
	Transfer  time.Duration
	Compute   time.Duration
	// Truth is the ground-truth label that rode the request context
	// ("ransomware" or "benign"), empty when the traffic carried no label
	// (production streams have no ground truth; sandbox replays and load
	// generators stamp one via quality.WithLabel).
	Truth string
	// Family is the labeled generating family or benign archetype; empty
	// without a label.
	Family string
}

// Config controls the detector.
type Config struct {
	// Stride is how many new calls arrive between classifications once the
	// window is full; 0 defaults to 25 (the dataset extraction stride).
	Stride int
	// Threshold is the alert probability; 0 defaults to 0.5.
	Threshold float64
	// AlertsToBlock is how many consecutive alerting windows trigger
	// mitigation; 0 defaults to 2 (one confirmation re-check).
	AlertsToBlock int
	// OnBlock, when non-nil, is invoked exactly once when mitigation fires.
	OnBlock func(Event)
	// Telemetry, when non-nil, receives the detection counters:
	// detect_windows_total, detect_verdicts_total{verdict=...},
	// detect_alerts_total, detect_blocks_total. Detectors sharing a
	// registry (e.g. the per-process children of a Mux) share the series,
	// giving system-wide verdict rates; per-detector numbers stay in
	// Stats().
	Telemetry *telemetry.Registry
	// Spans, when non-nil, retains one pipeline span per classified window
	// (queue wait → transfer → compute → verdict).
	Spans *telemetry.SpanLog
	// OnWindow, when non-nil, receives every classified window with its
	// pipeline attribution — wire incident.Recorder.Window here to turn
	// flagged processes into forensic incident reports. Inside a Mux the
	// sample carries the process's PID.
	OnWindow func(WindowSample)
	// Events, when non-nil, receives the detector's structured events:
	// window verdicts (debug: benign, info: alert) and mitigation
	// (error: mitigation.block), each carrying the trace job ID and
	// process attribution.
	Events *eventlog.Logger
	// Prof, when non-nil, attributes each classified window's host
	// wall-clock to pipeline stages: the detector opens the record it
	// creates per classification for profiling, the layers below stamp
	// their stages, and the detector adds its verdict and observation costs
	// before recording it.
	Prof *prof.Profiler
	// Quality, when non-nil, receives every classified window's verdict
	// together with the ground-truth label riding the request context (if
	// any) — the detection-quality scorecard's feed.
	Quality *quality.Scorecard
}

func (c *Config) defaults() {
	if c.Stride == 0 {
		c.Stride = 25
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.AlertsToBlock == 0 {
		c.AlertsToBlock = 2
	}
}

// Detector consumes an API-call stream and classifies sliding windows on
// the CSD engine. It is not safe for concurrent use — it models the single
// in-device stream of the paper's deployment.
type Detector struct {
	pred Predictor
	cfg  Config
	// pid attributes this detector's windows to a monitored process; set
	// by the Mux for its per-process children, 0 for a bare detector.
	pid int

	window    []int
	filled    int
	sinceEval int
	calls     int64

	consecutive int
	blocked     bool

	windowsEvaluated int64
	alerts           int64

	windowsC       *telemetry.Counter
	verdictRansomC *telemetry.Counter
	verdictBenignC *telemetry.Counter
	alertsC        *telemetry.Counter
	blocksC        *telemetry.Counter
}

// New builds a detector over the predictor.
func New(pred Predictor, cfg Config) (*Detector, error) {
	if pred == nil {
		return nil, errors.New("detect: nil predictor")
	}
	cfg.defaults()
	if cfg.Stride <= 0 {
		return nil, fmt.Errorf("detect: stride must be positive, got %d", cfg.Stride)
	}
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("detect: threshold %v outside (0, 1)", cfg.Threshold)
	}
	if cfg.AlertsToBlock <= 0 {
		return nil, fmt.Errorf("detect: AlertsToBlock must be positive, got %d", cfg.AlertsToBlock)
	}
	w := pred.SeqLen()
	if w <= 0 {
		return nil, fmt.Errorf("detect: predictor window %d invalid", w)
	}
	reg := cfg.Telemetry
	return &Detector{
		pred: pred, cfg: cfg, window: make([]int, w),
		windowsC: reg.Counter("detect_windows_total", "Windows classified."),
		verdictRansomC: reg.Counter("detect_verdicts_total",
			"Classification verdicts by outcome.", telemetry.L("verdict", "ransomware")),
		verdictBenignC: reg.Counter("detect_verdicts_total",
			"Classification verdicts by outcome.", telemetry.L("verdict", "benign")),
		alertsC: reg.Counter("detect_alerts_total", "Windows crossing the alert threshold."),
		blocksC: reg.Counter("detect_blocks_total", "Mitigation activations (write quarantine)."),
	}, nil
}

// ErrBlocked is returned by Observe after mitigation has fired: the device
// has quarantined writes and the stream should be considered contained.
var ErrBlocked = errors.New("detect: mitigation active, stream blocked")

// Observe feeds one API call into the detector. When the call completes a
// classification window (every Stride calls once the window is full), the
// window is classified and an Event returned; otherwise the event is nil.
// ctx bounds the classification; a canceled ctx aborts it before the
// predictor is touched.
func (d *Detector) Observe(ctx context.Context, apiCallID int) (*Event, error) {
	if d.blocked {
		return nil, ErrBlocked
	}
	d.calls++
	if d.filled < len(d.window) {
		d.window[d.filled] = apiCallID
		d.filled++
		if d.filled < len(d.window) {
			return nil, nil
		}
		// First full window: classify immediately.
		return d.classify(ctx)
	}
	// Slide: drop the oldest call.
	copy(d.window, d.window[1:])
	d.window[len(d.window)-1] = apiCallID
	d.sinceEval++
	if d.sinceEval < d.cfg.Stride {
		return nil, nil
	}
	return d.classify(ctx)
}

func (d *Detector) classify(ctx context.Context) (*Event, error) {
	d.sinceEval = 0
	// Open a request record unless the caller already carries one; the
	// layers below (scheduler queue wait, engine transfer/compute) fill in
	// whichever record rides the context. A window observer (or event log)
	// also wants the record's attribution, so one is created for it even
	// when no span ring or profiler is configured.
	rec := telemetry.SpanFrom(ctx)
	own := false
	if rec == nil && (d.cfg.Spans != nil || d.cfg.Prof != nil || d.cfg.OnWindow != nil || d.cfg.Events != nil || d.cfg.Quality != nil) {
		rec = &telemetry.Span{Name: "window"}
		d.cfg.Prof.Open(rec)
		ctx = telemetry.WithSpan(ctx, rec)
		own = true
	}
	res, _, err := d.pred.Predict(ctx, d.window)
	if err != nil {
		return nil, fmt.Errorf("detect: classify window at call %d: %w", d.calls, err)
	}
	verdictStart := time.Now()
	d.windowsEvaluated++
	d.windowsC.Inc()
	if res.Ransomware {
		d.verdictRansomC.Inc()
	} else {
		d.verdictBenignC.Inc()
	}
	ev := &Event{CallIndex: d.calls - 1, Probability: res.Probability, Action: ActionNone}
	if res.Probability >= d.cfg.Threshold {
		d.alerts++
		d.alertsC.Inc()
		d.consecutive++
		ev.Action = ActionAlert
		if d.consecutive >= d.cfg.AlertsToBlock {
			ev.Action = ActionBlock
			d.blocked = true
			d.blocksC.Inc()
			if d.cfg.OnBlock != nil {
				d.cfg.OnBlock(*ev)
			}
		}
	} else {
		d.consecutive = 0
	}
	verdict := time.Since(verdictStart)
	rec.Add(telemetry.StageVerdict, verdict)
	obs := rec.Begin(telemetry.StageObserve)
	rec.Record(telemetry.PhaseVerdict, verdict)
	if own {
		d.cfg.Spans.Add(*rec)
	}
	d.observeWindow(ctx, ev, rec)
	obs.End()
	if own {
		d.cfg.Prof.Record(rec)
	}
	return ev, nil
}

// observeWindow feeds the classified window — with the pipeline
// attribution its record accumulated on the way down the stack — to the
// OnWindow observer and the event log.
func (d *Detector) observeWindow(ctx context.Context, ev *Event, rec *telemetry.Span) {
	if d.cfg.OnWindow == nil && d.cfg.Events == nil && d.cfg.Quality == nil {
		return
	}
	s := WindowSample{
		PID:         d.pid,
		Time:        time.Now(),
		CallIndex:   ev.CallIndex,
		Probability: ev.Probability,
		Action:      ev.Action,
	}
	if lbl, ok := quality.LabelFrom(ctx); ok {
		s.Truth, s.Family = "benign", lbl.Family
		if lbl.Truth {
			s.Truth = "ransomware"
		}
	}
	d.cfg.Quality.Observe(ctx, quality.Verdict{
		PID:         d.pid,
		Probability: ev.Probability,
		Flagged:     ev.Action >= ActionAlert,
		Blocked:     ev.Action == ActionBlock,
	})
	if rec != nil {
		s.Job = rec.ID
		s.Device = rec.Device
		for _, p := range rec.Phases {
			switch p.Name {
			case telemetry.PhaseQueue:
				s.QueueWait += p.Duration
			case telemetry.PhaseTransfer:
				s.Transfer += p.Duration
			case telemetry.PhaseCompute:
				s.Compute += p.Duration
			}
		}
	}
	if d.cfg.OnWindow != nil {
		d.cfg.OnWindow(s)
	}
	lvl, name := eventlog.LevelDebug, "window.benign"
	switch s.Action {
	case ActionAlert:
		lvl, name = eventlog.LevelInfo, "window.alert"
	case ActionBlock:
		lvl, name = eventlog.LevelError, "mitigation.block"
	}
	if !d.cfg.Events.Enabled(lvl) {
		return
	}
	// The record riding ctx stamps the event with the request's job ID.
	d.cfg.Events.LogPID(ctx, lvl, "detect", name, s.PID,
		eventlog.F("call_index", s.CallIndex),
		eventlog.F("probability", s.Probability),
		eventlog.F("device", s.Device),
		eventlog.F("queue_wait_ns", s.QueueWait),
		eventlog.F("compute_ns", s.Compute),
	)
}

// Blocked reports whether mitigation has fired.
func (d *Detector) Blocked() bool { return d.blocked }

// Stats summarizes detector activity.
type Stats struct {
	CallsObserved    int64
	WindowsEvaluated int64
	Alerts           int64
	Blocked          bool
}

// Stats returns a snapshot of the detector's counters.
func (d *Detector) Stats() Stats {
	return Stats{
		CallsObserved:    d.calls,
		WindowsEvaluated: d.windowsEvaluated,
		Alerts:           d.alerts,
		Blocked:          d.blocked,
	}
}

// Reset clears all stream state (window, counters, mitigation latch).
func (d *Detector) Reset() {
	d.filled = 0
	d.sinceEval = 0
	d.calls = 0
	d.consecutive = 0
	d.blocked = false
	d.windowsEvaluated = 0
	d.alerts = 0
}
