package prof

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// BreakdownRecord is the flight recorder's JSON-friendly form of one
// request's stage breakdown.
type BreakdownRecord struct {
	// Time stamps request admission.
	Time time.Time `json:"time"`
	// Job is the trace correlation ID (0 when tracing is off).
	Job int64 `json:"job,omitempty"`
	// TotalNS sums the attributed stage costs.
	TotalNS int64 `json:"total_ns"`

	QueueNS    int64 `json:"queue_ns,omitempty"`
	EncodeNS   int64 `json:"encode_ns,omitempty"`
	TransferNS int64 `json:"transfer_ns,omitempty"`
	ComputeNS  int64 `json:"compute_ns,omitempty"`
	VerdictNS  int64 `json:"verdict_ns,omitempty"`
	ObserveNS  int64 `json:"observe_ns,omitempty"`

	QueueAllocs    int64 `json:"queue_allocs,omitempty"`
	EncodeAllocs   int64 `json:"encode_allocs,omitempty"`
	TransferAllocs int64 `json:"transfer_allocs,omitempty"`
	ComputeAllocs  int64 `json:"compute_allocs,omitempty"`
	VerdictAllocs  int64 `json:"verdict_allocs,omitempty"`
	ObserveAllocs  int64 `json:"observe_allocs,omitempty"`
}

// set stores one stage's measurements in the matching fixed fields.
func (r *BreakdownRecord) set(s telemetry.Stage, wallNS, allocs int64) {
	switch s {
	case telemetry.StageQueue:
		r.QueueNS, r.QueueAllocs = wallNS, allocs
	case telemetry.StageEncode:
		r.EncodeNS, r.EncodeAllocs = wallNS, allocs
	case telemetry.StageTransfer:
		r.TransferNS, r.TransferAllocs = wallNS, allocs
	case telemetry.StageCompute:
		r.ComputeNS, r.ComputeAllocs = wallNS, allocs
	case telemetry.StageVerdict:
		r.VerdictNS, r.VerdictAllocs = wallNS, allocs
	case telemetry.StageObserve:
		r.ObserveNS, r.ObserveAllocs = wallNS, allocs
	}
}

// flight is the bounded in-memory ring pair behind the flight recorder:
// recent runtime samples and recent request breakdowns.
type flight struct {
	mu         sync.Mutex
	samples    []Sample
	sNext      int
	breakdowns []BreakdownRecord
	bNext      int
}

func newFlight(samples, breakdowns int) *flight {
	return &flight{
		samples:    make([]Sample, 0, samples),
		breakdowns: make([]BreakdownRecord, 0, breakdowns),
	}
}

func (f *flight) addSample(s Sample) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.samples) < cap(f.samples) {
		f.samples = append(f.samples, s)
		return
	}
	f.samples[f.sNext] = s
	f.sNext = (f.sNext + 1) % len(f.samples)
}

func (f *flight) addBreakdown(r BreakdownRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.breakdowns) < cap(f.breakdowns) {
		f.breakdowns = append(f.breakdowns, r)
		return
	}
	f.breakdowns[f.bNext] = r
	f.bNext = (f.bNext + 1) % len(f.breakdowns)
}

// snapshot returns both rings, oldest first.
func (f *flight) snapshot() ([]Sample, []BreakdownRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := make([]Sample, 0, len(f.samples))
	s = append(s, f.samples[f.sNext:]...)
	s = append(s, f.samples[:f.sNext]...)
	b := make([]BreakdownRecord, 0, len(f.breakdowns))
	b = append(b, f.breakdowns[f.bNext:]...)
	b = append(b, f.breakdowns[:f.bNext]...)
	return s, b
}

// FlightDump is one flight-recorder dump: the retained runtime samples and
// request breakdowns at the moment something went wrong, stamped with the
// reason and (when an incident triggered it) the incident ID — the
// correlation keys back to /incidents.json, /events.json, and the trace.
type FlightDump struct {
	Reason     string            `json:"reason"`
	IncidentID int64             `json:"incident_id,omitempty"`
	Time       time.Time         `json:"time"`
	Seq        int64             `json:"seq"`
	Samples    []Sample          `json:"samples"`
	Requests   []BreakdownRecord `json:"requests"`
	// Extra is the Config.FlightExtra payload captured at dump time
	// (e.g. the detection-quality scorecard snapshot); absent when no
	// hook is configured.
	Extra any `json:"extra,omitempty"`
}

// Flight snapshots the flight recorder. A fresh runtime sample is taken
// first, so the dump always carries the state at the trigger instant even
// when the background sampler period is long. Nil-safe.
func (p *Profiler) Flight(reason string, incidentID int64) FlightDump {
	if p == nil {
		return FlightDump{Reason: reason, IncidentID: incidentID}
	}
	p.Sample()
	samples, breakdowns := p.flight.snapshot()
	p.mu.Lock()
	p.dumps++
	seq := p.dumps
	p.mu.Unlock()
	d := FlightDump{
		Reason: reason, IncidentID: incidentID,
		Time: p.cfg.Clock(), Seq: seq,
		Samples: samples, Requests: breakdowns,
	}
	if p.cfg.FlightExtra != nil {
		d.Extra = p.cfg.FlightExtra()
	}
	return d
}

// WriteFlight dumps the flight recorder to dir/flight-<seq>.json and emits
// the prof.flight.dump event. Wire it to incident.Config.OnOpen and
// slo.Config.OnPage so every page ships with the runtime state that
// preceded it. A nil profiler writes nothing and returns "".
func (p *Profiler) WriteFlight(dir, reason string, incidentID int64) (string, error) {
	if p == nil {
		return "", nil
	}
	d := p.Flight(reason, incidentID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%03d.json", d.Seq))
	if err := writeJSON(path, d); err != nil {
		return "", err
	}
	p.dumpsC.Inc()
	p.cfg.Events.Warn(context.Background(), "prof", "prof.flight.dump",
		eventlog.F("path", path),
		eventlog.F("reason", reason),
		eventlog.F("incident_id", incidentID),
		eventlog.F("samples", len(d.Samples)),
		eventlog.F("requests", len(d.Requests)))
	return path, nil
}

// WriteSnapshot writes the profiler snapshot (the /prof.json document) to
// dir/prof.json — the end-of-run artifact uploaded by `make prof-smoke`.
// A nil profiler writes nothing and returns "".
func (p *Profiler) WriteSnapshot(dir string) (string, error) {
	if p == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "prof.json")
	if err := writeJSON(path, p.Snapshot()); err != nil {
		return "", err
	}
	return path, nil
}

func writeJSON(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
