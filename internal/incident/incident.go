// Package incident turns the detection stack's per-window forensic feed
// into SOC-facing incident reports.
//
// The paper's mitigation story ends at the write quarantine ("the CSD
// takes direct action to prevent further encryption"); an operator's story
// starts there: which process was flagged, how did the classifier's
// confidence evolve window by window, which model generation produced the
// verdicts, which device served them and how long did requests sit in its
// queue, and which trace jobs carry the device-level timeline of the same
// classifications. The Recorder answers those questions by folding the
// detect.WindowSample stream (wire Recorder.Window to detect.Config.OnWindow
// and Recorder.Evict to detect.MuxConfig.OnEvict) into one Incident per
// flagged process.
//
// Lifecycle: a process becomes a *candidate* on its first classified
// window; the candidate becomes an open Incident when a window first
// crosses the alert threshold; the incident closes when mitigation blocks
// the process, when the mux evicts its detector state (a later reappearance
// opens a distinct incident — the tracking epochs share no state), or when
// Flush is called at shutdown. Candidates that are never flagged are
// discarded silently; every flagged process yields exactly one Incident per
// tracking epoch.
//
// The Recorder is safe for concurrent use.
package incident

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Window is one classified window in an incident's trajectory.
type Window struct {
	// Time is when the verdict was produced.
	Time time.Time `json:"time"`
	// CallIndex is the index of the API call that completed the window.
	CallIndex int64 `json:"call_index"`
	// Probability is the classifier's ransomware probability.
	Probability float64 `json:"probability"`
	// Verdict is the detector's response: "none", "alert", or "block".
	Verdict string `json:"verdict"`
	// Job is the trace correlation ID of the classification request (0 when
	// tracing is off); it also appears on the request's telemetry span,
	// timeline events, and eventlog events.
	Job int64 `json:"job,omitempty"`
	// Device is the serving device that executed the classification.
	Device string `json:"device,omitempty"`
	// QueueWait, Transfer, and Compute are the request's recorded pipeline
	// phases, in nanoseconds.
	QueueWait time.Duration `json:"queue_wait_ns"`
	Transfer  time.Duration `json:"transfer_ns"`
	Compute   time.Duration `json:"compute_ns"`
	// Truth is the ground-truth label that rode the classification request
	// ("ransomware" or "benign"); empty for unlabeled production traffic.
	// Together with Verdict it tells a reader at a glance whether this
	// window was a hit, a miss, or a false alarm.
	Truth string `json:"truth,omitempty"`
}

// Incident is the forensic record of one flagged process — or, for
// Kind "device", of one failed drive.
type Incident struct {
	// ID numbers incidents in open order, starting at 1.
	ID int64 `json:"id"`
	// Kind distinguishes process incidents (ransomware verdicts folded from
	// the window stream; the zero value, serialized as "process") from
	// device incidents (a drive fault reported by the fleet layer).
	Kind string `json:"kind,omitempty"`
	// PID is the flagged process (0 for device incidents).
	PID int `json:"pid"`
	// State is "open" until the incident closes.
	State string `json:"state"`
	// CloseReason is why the incident closed: "blocked" (mitigation fired),
	// "evicted" (the mux dropped the process's detector state), "flush"
	// (operator shutdown), or "device-failed" (device incidents). Empty
	// while open.
	CloseReason string `json:"close_reason,omitempty"`
	// FailureReason is the fault cause reported for a device incident
	// ("ecc-storm", "simulated-fault", ...); empty for process incidents.
	FailureReason string `json:"failure_reason,omitempty"`
	// Objective is the violated service-level objective of a Kind "slo"
	// incident; empty otherwise.
	Objective string `json:"objective,omitempty"`
	// FirstSeen is when the process's first window of this tracking epoch
	// was classified — including benign windows before the flag.
	FirstSeen time.Time `json:"first_seen"`
	// FlaggedAt is when a window first crossed the alert threshold.
	FlaggedAt time.Time `json:"flagged_at"`
	// BlockedAt is when mitigation fired; zero unless CloseReason is
	// "blocked".
	BlockedAt time.Time `json:"blocked_at,omitzero"`
	// ClosedAt is when the incident closed; zero while open.
	ClosedAt time.Time `json:"closed_at,omitzero"`
	// ModelGeneration is the cti deployment generation that was live when
	// the process was flagged (0 when no generation source is configured).
	ModelGeneration int64 `json:"model_generation,omitempty"`
	// WindowsTotal counts every classified window of the epoch, whether or
	// not it is retained in Trajectory.
	WindowsTotal int `json:"windows_total"`
	// AlertsTotal counts windows at or above the alert threshold.
	AlertsTotal int `json:"alerts_total"`
	// MaxProbability is the highest ransomware probability observed.
	MaxProbability float64 `json:"max_probability"`
	// Trajectory is the confidence trajectory: the most recent windows, in
	// order, bounded by Config.MaxTrajectory.
	Trajectory []Window `json:"trajectory"`
	// TrajectoryDropped counts windows evicted from the bounded Trajectory.
	TrajectoryDropped int `json:"trajectory_dropped,omitempty"`
	// Jobs are the distinct trace job IDs of the retained windows — the keys
	// for correlating this incident with the trace timeline export and
	// /spans.json.
	Jobs []int64 `json:"jobs,omitempty"`
	// Devices are the distinct serving devices that classified the windows
	// (for a device incident: the failed drive's registry ID).
	Devices []string `json:"devices,omitempty"`
	// QueueWaitTotal, TransferTotal, and ComputeTotal aggregate the pipeline
	// phases across every window of the epoch, in nanoseconds.
	QueueWaitTotal time.Duration `json:"queue_wait_total_ns"`
	TransferTotal  time.Duration `json:"transfer_total_ns"`
	ComputeTotal   time.Duration `json:"compute_total_ns"`
	// Truth and Family are the process's ground-truth label when the
	// traffic was labeled (quality.WithLabel): whether this incident
	// caught real ransomware (and which emulated family) or false-alarmed
	// on benign activity. Empty for unlabeled traffic.
	Truth  string `json:"truth,omitempty"`
	Family string `json:"family,omitempty"`
}

// Config controls the recorder.
type Config struct {
	// Generation, when non-nil, supplies the live model generation stamped
	// on incidents at flag time — wire cti.HotSwapEngine.Generation here.
	Generation func() int64
	// MaxTrajectory bounds each incident's retained window trajectory;
	// 0 defaults to 256. Older windows are dropped (and counted) first.
	MaxTrajectory int
	// MaxClosed bounds retained closed incidents; 0 defaults to 64. Oldest
	// are dropped first (WriteReports written before then are unaffected).
	MaxClosed int
	// Events, when non-nil, receives an incident lifecycle event per
	// transition: warn incident.open when a process is flagged, and
	// incident.close on closure (error level when mitigation blocked the
	// process, info otherwise).
	Events *eventlog.Logger
	// OnOpen, when non-nil, is invoked (outside the recorder's lock, with a
	// deep copy) every time an incident opens — a process flagged, a device
	// failure recorded, or an SLO breach recorded. Wire the continuous
	// profiler's flight-recorder dump here so every incident ships with the
	// runtime state that preceded it.
	OnOpen func(Incident)
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Recorder folds the window stream into per-process incidents.
type Recorder struct {
	cfg Config

	mu sync.Mutex
	// tracked holds the per-PID state of the current epoch: a candidate
	// (flagged=false) or an open incident.
	tracked map[int]*state
	closed  []Incident
	nextID  int64
	opened  int64
}

type state struct {
	flagged bool
	inc     Incident
}

// NewRecorder builds a recorder.
func NewRecorder(cfg Config) (*Recorder, error) {
	if cfg.MaxTrajectory == 0 {
		cfg.MaxTrajectory = 256
	}
	if cfg.MaxTrajectory < 0 {
		return nil, fmt.Errorf("incident: MaxTrajectory must be positive, got %d", cfg.MaxTrajectory)
	}
	if cfg.MaxClosed == 0 {
		cfg.MaxClosed = 64
	}
	if cfg.MaxClosed < 0 {
		return nil, fmt.Errorf("incident: MaxClosed must be positive, got %d", cfg.MaxClosed)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Recorder{cfg: cfg, tracked: make(map[int]*state)}, nil
}

// Window folds one classified window into the process's incident state.
// Wire it to detect.Config.OnWindow.
func (r *Recorder) Window(s detect.WindowSample) {
	if r == nil {
		return
	}
	w := Window{
		Time:        s.Time,
		CallIndex:   s.CallIndex,
		Probability: s.Probability,
		Verdict:     verdict(s.Action),
		Job:         s.Job,
		Device:      s.Device,
		QueueWait:   s.QueueWait,
		Transfer:    s.Transfer,
		Compute:     s.Compute,
		Truth:       s.Truth,
	}
	if w.Time.IsZero() {
		w.Time = r.cfg.Clock()
	}

	r.mu.Lock()
	st, ok := r.tracked[s.PID]
	if !ok {
		st = &state{inc: Incident{PID: s.PID, State: "open", FirstSeen: w.Time}}
		r.tracked[s.PID] = st
	}
	inc := &st.inc
	if inc.Truth == "" && s.Truth != "" {
		inc.Truth, inc.Family = s.Truth, s.Family
	}
	inc.WindowsTotal++
	if s.Probability > inc.MaxProbability {
		inc.MaxProbability = s.Probability
	}
	inc.QueueWaitTotal += s.QueueWait
	inc.TransferTotal += s.Transfer
	inc.ComputeTotal += s.Compute
	if len(inc.Trajectory) >= r.cfg.MaxTrajectory {
		drop := len(inc.Trajectory) - r.cfg.MaxTrajectory + 1
		inc.Trajectory = append(inc.Trajectory[:0], inc.Trajectory[drop:]...)
		inc.TrajectoryDropped += drop
	}
	inc.Trajectory = append(inc.Trajectory, w)
	if w.Job != 0 && !containsJob(inc.Jobs, w.Job) && len(inc.Jobs) < r.cfg.MaxTrajectory {
		inc.Jobs = append(inc.Jobs, w.Job)
	}
	if w.Device != "" && !containsDevice(inc.Devices, w.Device) {
		inc.Devices = append(inc.Devices, w.Device)
	}

	var opened, blocked bool
	if s.Action >= detect.ActionAlert {
		inc.AlertsTotal++
		if !st.flagged {
			st.flagged = true
			r.nextID++
			r.opened++
			inc.ID = r.nextID
			inc.FlaggedAt = w.Time
			if r.cfg.Generation != nil {
				inc.ModelGeneration = r.cfg.Generation()
			}
			opened = true
		}
	}
	if s.Action == detect.ActionBlock {
		inc.BlockedAt = w.Time
		blocked = true
	}
	var snap Incident
	if opened || blocked {
		snap = cloneIncident(*inc)
	}
	if blocked {
		r.closeLocked(s.PID, st, "blocked", w.Time)
	}
	r.mu.Unlock()

	if opened {
		r.cfg.Events.LogPID(jobCtx(w.Job), eventlog.LevelWarn, "incident", "incident.open", s.PID,
			eventlog.F("incident_id", snap.ID),
			eventlog.F("probability", w.Probability),
			eventlog.F("model_generation", snap.ModelGeneration),
			eventlog.F("windows_before_flag", snap.WindowsTotal-1))
		if r.cfg.OnOpen != nil {
			r.cfg.OnOpen(snap)
		}
	}
	if blocked {
		r.cfg.Events.LogPID(jobCtx(w.Job), eventlog.LevelError, "incident", "incident.close", s.PID,
			eventlog.F("incident_id", snap.ID),
			eventlog.F("reason", "blocked"),
			eventlog.F("windows_total", snap.WindowsTotal),
			eventlog.F("max_probability", snap.MaxProbability))
	}
}

// DeviceFailure records a device-fault incident: one closed Incident of
// Kind "device" attributed to the failed drive's registry ID. The fleet
// layer calls it when a device fails so drive faults land in the same
// SOC-facing history as ransomware verdicts. It returns the recorded
// incident.
func (r *Recorder) DeviceFailure(deviceID, reason string) Incident {
	if r == nil {
		return Incident{}
	}
	r.mu.Lock()
	now := r.cfg.Clock()
	r.nextID++
	r.opened++
	inc := Incident{
		ID: r.nextID, Kind: "device", State: "closed",
		CloseReason: "device-failed", FailureReason: reason,
		FirstSeen: now, FlaggedAt: now, ClosedAt: now,
		Devices: []string{deviceID},
	}
	if r.cfg.Generation != nil {
		inc.ModelGeneration = r.cfg.Generation()
	}
	if len(r.closed) >= r.cfg.MaxClosed {
		drop := len(r.closed) - r.cfg.MaxClosed + 1
		r.closed = append(r.closed[:0], r.closed[drop:]...)
	}
	r.closed = append(r.closed, inc)
	r.mu.Unlock()
	r.cfg.Events.LogDevice(context.Background(), eventlog.LevelError, "incident", "incident.device_failure", deviceID,
		eventlog.F("incident_id", inc.ID),
		eventlog.F("reason", reason))
	if r.cfg.OnOpen != nil {
		r.cfg.OnOpen(cloneIncident(inc))
	}
	return cloneIncident(inc)
}

// SLOBreach records a service-level-objective breach: one closed Incident
// of Kind "slo" naming the violated objective and the burn rule that fired.
// The slo.Evaluator calls it when a paging burn-rate rule trips so budget
// exhaustion lands in the same SOC-facing history as ransomware verdicts
// and drive faults. It returns the recorded incident.
func (r *Recorder) SLOBreach(objective, rule, reason string) Incident {
	if r == nil {
		return Incident{}
	}
	r.mu.Lock()
	now := r.cfg.Clock()
	r.nextID++
	r.opened++
	inc := Incident{
		ID: r.nextID, Kind: "slo", State: "closed",
		CloseReason: "slo-breach", FailureReason: reason,
		Objective: objective,
		FirstSeen: now, FlaggedAt: now, ClosedAt: now,
	}
	if r.cfg.Generation != nil {
		inc.ModelGeneration = r.cfg.Generation()
	}
	if len(r.closed) >= r.cfg.MaxClosed {
		drop := len(r.closed) - r.cfg.MaxClosed + 1
		r.closed = append(r.closed[:0], r.closed[drop:]...)
	}
	r.closed = append(r.closed, inc)
	r.mu.Unlock()
	r.cfg.Events.Error(context.Background(), "incident", "incident.slo_breach",
		eventlog.F("incident_id", inc.ID),
		eventlog.F("objective", objective),
		eventlog.F("rule", rule),
		eventlog.F("reason", reason))
	if r.cfg.OnOpen != nil {
		r.cfg.OnOpen(cloneIncident(inc))
	}
	return cloneIncident(inc)
}

// Evict drops the process's tracking state: an open incident closes with
// reason "evicted" (a later reappearance of the PID opens a distinct
// incident); an unflagged candidate is discarded. Wire it to
// detect.MuxConfig.OnEvict.
func (r *Recorder) Evict(pid int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	st, ok := r.tracked[pid]
	if !ok {
		r.mu.Unlock()
		return
	}
	if !st.flagged {
		delete(r.tracked, pid)
		r.mu.Unlock()
		return
	}
	id := st.inc.ID
	r.closeLocked(pid, st, "evicted", r.cfg.Clock())
	r.mu.Unlock()
	r.cfg.Events.LogPID(context.Background(), eventlog.LevelInfo, "incident", "incident.close", pid,
		eventlog.F("incident_id", id),
		eventlog.F("reason", "evicted"))
}

// Flush closes every open incident with reason "flush" (shutdown) and
// discards unflagged candidates. It returns the full incident history, as
// Snapshot does.
func (r *Recorder) Flush() []Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	now := r.cfg.Clock()
	type closing struct {
		pid int
		id  int64
	}
	var flushed []closing
	for pid, st := range r.tracked {
		if !st.flagged {
			delete(r.tracked, pid)
			continue
		}
		flushed = append(flushed, closing{pid: pid, id: st.inc.ID})
	}
	sort.Slice(flushed, func(i, j int) bool { return flushed[i].id < flushed[j].id })
	for _, c := range flushed {
		r.closeLocked(c.pid, r.tracked[c.pid], "flush", now)
	}
	out := r.snapshotLocked()
	r.mu.Unlock()
	for _, c := range flushed {
		r.cfg.Events.LogPID(context.Background(), eventlog.LevelInfo, "incident", "incident.close", c.pid,
			eventlog.F("incident_id", c.id),
			eventlog.F("reason", "flush"))
	}
	return out
}

// closeLocked moves an open incident to the closed ring. Caller holds r.mu
// and has verified st.flagged.
func (r *Recorder) closeLocked(pid int, st *state, reason string, at time.Time) {
	st.inc.State = "closed"
	st.inc.CloseReason = reason
	st.inc.ClosedAt = at
	delete(r.tracked, pid)
	if len(r.closed) >= r.cfg.MaxClosed {
		drop := len(r.closed) - r.cfg.MaxClosed + 1
		r.closed = append(r.closed[:0], r.closed[drop:]...)
	}
	r.closed = append(r.closed, st.inc)
}

// Snapshot returns the incident history — closed incidents in close order,
// then open incidents in flag order. The returned incidents are deep copies.
func (r *Recorder) Snapshot() []Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Recorder) snapshotLocked() []Incident {
	out := make([]Incident, 0, len(r.closed)+len(r.tracked))
	for _, inc := range r.closed {
		out = append(out, cloneIncident(inc))
	}
	var open []Incident
	for _, st := range r.tracked {
		if st.flagged {
			open = append(open, cloneIncident(st.inc))
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].ID < open[j].ID })
	return append(out, open...)
}

// Open returns the number of currently open incidents.
func (r *Recorder) Open() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, st := range r.tracked {
		if st.flagged {
			n++
		}
	}
	return n
}

// Total counts incidents ever opened, including closed and dropped ones.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opened
}

func cloneIncident(inc Incident) Incident {
	inc.Trajectory = append([]Window(nil), inc.Trajectory...)
	inc.Jobs = append([]int64(nil), inc.Jobs...)
	inc.Devices = append([]string(nil), inc.Devices...)
	return inc
}

func verdict(a detect.Action) string {
	switch a {
	case detect.ActionAlert:
		return "alert"
	case detect.ActionBlock:
		return "block"
	default:
		return "none"
	}
}

func containsJob(jobs []int64, j int64) bool {
	for _, x := range jobs {
		if x == j {
			return true
		}
	}
	return false
}

func containsDevice(devs []string, d string) bool {
	for _, x := range devs {
		if x == d {
			return true
		}
	}
	return false
}

func jobCtx(job int64) context.Context {
	if job == 0 {
		return context.Background()
	}
	return telemetry.WithSpan(context.Background(), &telemetry.Span{ID: job})
}

// ErrNoIncidents is returned by WriteReports when there is nothing to write.
var ErrNoIncidents = errors.New("incident: no incidents recorded")
