package prof

import (
	"encoding/json"
	"net/http"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// StageSummary aggregates one stage across every recorded breakdown.
type StageSummary struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MeanNS  float64 `json:"mean_ns"`
}

// Snapshot is the /prof.json document: profiler configuration, a fresh
// runtime sample, per-stage cost aggregates, and the flight-recorder rings.
type Snapshot struct {
	Enabled            bool              `json:"enabled"`
	SampleEverySeconds float64           `json:"sample_every_seconds,omitempty"`
	MutexFraction      int               `json:"mutex_fraction,omitempty"`
	BlockRateNS        int               `json:"block_rate_ns,omitempty"`
	SamplesTotal       int64             `json:"samples_total"`
	RequestsTotal      int64             `json:"requests_total"`
	FlightDumps        int64             `json:"flight_dumps"`
	Last               Sample            `json:"last"`
	Stages             []StageSummary    `json:"stages,omitempty"`
	Samples            []Sample          `json:"samples"`
	Requests           []BreakdownRecord `json:"requests"`
}

// Snapshot takes a fresh runtime sample and returns the full profiler
// state. Nil-safe: a nil profiler reports Enabled false.
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	last := p.Sample()
	samples, breakdowns := p.flight.snapshot()
	p.mu.Lock()
	snap := Snapshot{
		Enabled:            true,
		SampleEverySeconds: p.cfg.SampleEvery.Seconds(),
		MutexFraction:      p.cfg.MutexFraction,
		BlockRateNS:        p.cfg.BlockRateNS,
		SamplesTotal:       p.samples,
		RequestsTotal:      p.requests,
		FlightDumps:        p.dumps,
		Last:               last,
		Samples:            samples,
		Requests:           breakdowns,
	}
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		if p.stageCount[s] == 0 {
			continue
		}
		snap.Stages = append(snap.Stages, StageSummary{
			Stage:   s.String(),
			Count:   p.stageCount[s],
			TotalNS: p.stageWall[s],
			MeanNS:  float64(p.stageWall[s]) / float64(p.stageCount[s]),
		})
	}
	p.mu.Unlock()
	return snap
}

// Handler serves the /prof.json endpoint. Valid on a nil profiler (serves
// an Enabled-false document), so wiring code needs no branches.
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.Snapshot())
	})
}
