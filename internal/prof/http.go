package prof

import (
	"net/http"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// StageSummary aggregates one stage across every recorded request: the
// count and sum of its prof_stage_seconds histogram.
type StageSummary struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MeanNS  float64 `json:"mean_ns"`
}

// Snapshot is the /prof.json document: profiler configuration, a fresh
// runtime sample, per-stage cost aggregates, and the flight recorder's
// runtime samples. The request rows are /spans.json's.
type Snapshot struct {
	Enabled            bool           `json:"enabled"`
	SampleEverySeconds float64        `json:"sample_every_seconds,omitempty"`
	MutexFraction      int            `json:"mutex_fraction,omitempty"`
	BlockRateNS        int            `json:"block_rate_ns,omitempty"`
	SamplesTotal       int64          `json:"samples_total"`
	RequestsTotal      int64          `json:"requests_total"`
	FlightDumps        int64          `json:"flight_dumps"`
	Last               Sample         `json:"last"`
	Stages             []StageSummary `json:"stages,omitempty"`
	Samples            []Sample       `json:"samples"`
}

// Snapshot takes a fresh runtime sample and returns the full profiler
// state. Nil-safe: a nil profiler reports Enabled false.
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	last := p.Sample()
	p.mu.Lock()
	snap := Snapshot{
		Enabled:            true,
		SampleEverySeconds: p.cfg.SampleEvery.Seconds(),
		MutexFraction:      p.cfg.MutexFraction,
		BlockRateNS:        p.cfg.BlockRateNS,
		SamplesTotal:       p.samples,
		RequestsTotal:      p.requestsC.Value(),
		FlightDumps:        p.dumps,
		Last:               last,
		Samples:            p.ring.Values(),
	}
	p.mu.Unlock()
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		h := p.stageH[s].Snapshot()
		if h.Count == 0 {
			continue
		}
		snap.Stages = append(snap.Stages, StageSummary{
			Stage:   s.String(),
			Count:   h.Count,
			TotalNS: h.Sum,
			MeanNS:  float64(h.Sum) / float64(h.Count),
		})
	}
	return snap
}

// Handler serves the /prof.json endpoint. Valid on a nil profiler (serves
// an Enabled-false document), so wiring code needs no branches.
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		telemetry.ServeJSON(w, http.StatusOK, p.Snapshot())
	})
}
