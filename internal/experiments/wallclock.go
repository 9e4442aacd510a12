package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/serve"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// This file is the observability-overhead self-audit: the same serialized
// serve→engine workload run twice — once with the full observability stack
// (telemetry registry, span log, tracer, event log, continuous profiler with
// per-stage allocation counting) and once with every collaborator nil — and
// the host wall-clock and allocation cost per request compared. The paper
// claims CSD inference frees host resources; this experiment keeps the
// repo honest about how much host the *instrumentation* takes back. Its
// instrumented allocs/op and B/op (BENCH_wallclock.json) are bench-gate
// rows; cmd/benchdiff holds them within 1% of
// bench-results/baseline-wallclock.json.

// WallClockConfig controls the self-audit.
type WallClockConfig struct {
	// Iterations is the measured request count per leg; 0 defaults to 2000.
	Iterations int
	// Warmup requests run before measurement on each leg; 0 defaults to 200.
	Warmup int
	// Seed drives model initialization; 0 defaults to 1.
	Seed int64
}

// WallClockLeg is one measured configuration.
type WallClockLeg struct {
	// NSPerOp is host wall-clock per request, serialized (enqueue through
	// response, including the worker handoff).
	NSPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocation costs per request,
	// measured from runtime.MemStats deltas across the serialized loop.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// WallClockResult is the audit outcome.
type WallClockResult struct {
	Iterations int `json:"iterations"`
	// Instrumented is the fully-observed leg; Bare is the Observability:
	// off leg (every telemetry/trace/eventlog/prof collaborator nil).
	Instrumented WallClockLeg `json:"instrumented"`
	Bare         WallClockLeg `json:"bare"`
	// OverheadPercent is the instrumented wall-clock premium over bare:
	// (instrumented - bare) / bare × 100. Small negative values mean the
	// premium drowned in scheduler noise.
	OverheadPercent float64 `json:"overhead_percent"`
	// AllocOverheadPerOp is the allocation premium per request.
	AllocOverheadPerOp float64 `json:"alloc_overhead_per_op"`
	// StageNSPerOp is the instrumented leg's mean host cost per pipeline
	// stage (queue, encode, transfer, compute, observe), from the
	// profiler's breakdown aggregates. The "observe" stage prices the
	// telemetry/trace/eventlog record calls themselves.
	StageNSPerOp map[string]float64 `json:"stage_ns_per_op,omitempty"`
}

// WallClock runs the observability self-audit and returns both legs plus
// the overhead attribution.
func WallClock(cfg WallClockConfig) (*WallClockResult, error) {
	if cfg.Iterations == 0 {
		cfg.Iterations = 2000
	}
	if cfg.Iterations < 0 {
		return nil, fmt.Errorf("experiments: negative iterations %d", cfg.Iterations)
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 200
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m, err := lstm.NewModel(lstm.PaperConfig(), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: wallclock: %w", err)
	}
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = i % m.Config().VocabSize
	}

	res := &WallClockResult{Iterations: cfg.Iterations}

	// Instrumented leg first (the order is irrelevant to the deltas; each
	// leg builds a fresh stack and forces a GC before measuring).
	instr, stages, err := wallClockLeg(m, seq, cfg, true)
	if err != nil {
		return nil, err
	}
	bare, _, err := wallClockLeg(m, seq, cfg, false)
	if err != nil {
		return nil, err
	}
	res.Instrumented, res.Bare, res.StageNSPerOp = instr, bare, stages
	if bare.NSPerOp > 0 {
		res.OverheadPercent = (instr.NSPerOp - bare.NSPerOp) / bare.NSPerOp * 100
	}
	res.AllocOverheadPerOp = instr.AllocsPerOp - bare.AllocsPerOp
	return res, nil
}

// wallClockLeg deploys a single-device serve stack — fully observed or fully
// bare — and measures the serialized request loop.
func wallClockLeg(m *lstm.Model, seq []int, cfg WallClockConfig, observed bool) (WallClockLeg, map[string]float64, error) {
	var (
		reg      *telemetry.Registry
		spans    *telemetry.SpanLog
		events   *eventlog.Logger
		tracer   *trace.Tracer
		profiler *prof.Profiler
	)
	if observed {
		reg = telemetry.NewRegistry()
		spans = telemetry.NewSpanLog(256)
		events = eventlog.New(eventlog.Config{})
		defer events.Close()
		tracer = trace.New()
		var err error
		// Manual sampling and untouched global profile rates: the audit
		// measures the request-path instrumentation, not the sampler tick,
		// and must not perturb other profilers in the same process.
		profiler, err = prof.New(prof.Config{
			SampleEvery: -1, MutexFraction: -1, BlockRateNS: -1,
			CountAllocs: true, Telemetry: reg, Events: events,
		})
		if err != nil {
			return WallClockLeg{}, nil, fmt.Errorf("experiments: wallclock: %w", err)
		}
		defer profiler.Close()
	}
	dev, err := csd.New(csd.Config{})
	if err != nil {
		return WallClockLeg{}, nil, fmt.Errorf("experiments: wallclock: %w", err)
	}
	eng, err := core.Deploy(dev, m, core.DeployConfig{
		SeqLen: len(seq), Telemetry: reg, Trace: tracer, Events: events,
	})
	if err != nil {
		return WallClockLeg{}, nil, fmt.Errorf("experiments: wallclock: %w", err)
	}
	srv, err := serve.New([]infer.Inferencer{eng}, serve.Config{
		Telemetry: reg, Spans: spans, Trace: tracer, Events: events, Prof: profiler,
	})
	if err != nil {
		return WallClockLeg{}, nil, fmt.Errorf("experiments: wallclock: %w", err)
	}
	defer srv.Close()

	ctx := context.Background()
	for i := 0; i < cfg.Warmup; i++ {
		if _, _, err := srv.Predict(ctx, seq); err != nil {
			return WallClockLeg{}, nil, fmt.Errorf("experiments: wallclock warmup: %w", err)
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < cfg.Iterations; i++ {
		if _, _, err := srv.Predict(ctx, seq); err != nil {
			return WallClockLeg{}, nil, fmt.Errorf("experiments: wallclock: %w", err)
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	n := float64(cfg.Iterations)
	leg := WallClockLeg{
		NSPerOp:     float64(wall.Nanoseconds()) / n,
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / n,
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / n,
	}
	var stages map[string]float64
	if profiler != nil {
		stages = make(map[string]float64)
		for _, s := range profiler.Snapshot().Stages {
			stages[s.Stage] = s.MeanNS
		}
	}
	return leg, stages, nil
}

// FormatWallClock renders the audit as an aligned text table.
func FormatWallClock(res *WallClockResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %14s %14s\n", "Leg", "ns/op", "allocs/op", "B/op")
	fmt.Fprintf(&b, "%-24s %14.0f %14.1f %14.0f\n", "observability on",
		res.Instrumented.NSPerOp, res.Instrumented.AllocsPerOp, res.Instrumented.BytesPerOp)
	fmt.Fprintf(&b, "%-24s %14.0f %14.1f %14.0f\n", "observability off",
		res.Bare.NSPerOp, res.Bare.AllocsPerOp, res.Bare.BytesPerOp)
	fmt.Fprintf(&b, "overhead: %+.1f%% wall-clock, %+.1f allocs/op (%d iterations)\n",
		res.OverheadPercent, res.AllocOverheadPerOp, res.Iterations)
	if len(res.StageNSPerOp) > 0 {
		fmt.Fprintf(&b, "instrumented stage means:")
		for _, stage := range []string{"queue", "encode", "transfer", "compute", "verdict", "observe"} {
			if ns, ok := res.StageNSPerOp[stage]; ok {
				fmt.Fprintf(&b, " %s=%.0fns", stage, ns)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
