package prof

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// FlightDump is one flight-recorder dump: the retained runtime samples and
// the Config.Spans request rows at the moment something went wrong, stamped
// with the reason and (when an incident triggered it) the incident ID — the
// correlation keys back to /incidents.json, /events.json, and the trace.
type FlightDump struct {
	Reason     string    `json:"reason"`
	IncidentID int64     `json:"incident_id,omitempty"`
	Time       time.Time `json:"time"`
	Seq        int64     `json:"seq"`
	Samples    []Sample  `json:"samples"`
	// Requests are the SpanLog rows: job, device, simulated phases and
	// host stage costs of each recent request.
	Requests []telemetry.Span `json:"requests"`
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
	p.mu.Lock()
	p.dumps++
	d := FlightDump{
		Reason: reason, IncidentID: incidentID,
		Time: p.cfg.Clock(), Seq: p.dumps,
		Samples: p.ring.Values(),
	}
	p.mu.Unlock()
	if d.Requests = p.cfg.Spans.Snapshot(); d.Requests == nil { // no Config.Spans
		d.Requests = []telemetry.Span{}
	}
	if p.cfg.FlightExtra != nil {
		d.Extra = p.cfg.FlightExtra()
	}
	return d
}

// WriteFlight dumps the flight recorder to dir/flight-<seq>.json and emits
// the prof.flight.dump event. Wire it to incident.Config.OnOpen so every
// incident, paged SLO breaches included, ships with the runtime state that
// preceded it. A nil profiler writes nothing and returns "".
func (p *Profiler) WriteFlight(dir, reason string, incidentID int64) (string, error) {
	if p == nil {
		return "", nil
	}
	d := p.Flight(reason, incidentID)
	path, err := writeJSON(dir, fmt.Sprintf("flight-%03d.json", d.Seq), d)
	if err != nil {
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
	return writeJSON(dir, "prof.json", p.Snapshot())
}

// writeJSON writes doc, indented, to dir/name and returns the path.
func writeJSON(dir, name string, doc any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := telemetry.WriteJSONFile(path, doc); err != nil {
		return "", err
	}
	return path, nil
}
