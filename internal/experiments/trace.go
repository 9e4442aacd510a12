package experiments

import (
	"context"
	"fmt"
	"sync"

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/trace"
)

// TraceRunConfig controls the traced demo workload behind `csdbench
// -trace` and `make trace`.
type TraceRunConfig struct {
	// Devices is the number of CSDs in the fleet; 0 defaults to 2, enough
	// to show cross-device concurrency on the timeline.
	Devices int
	// Stored is the number of SSD-resident sequences classified per device
	// population (P2P path); 0 defaults to 12.
	Stored int
	// Live is the number of host-submitted windows (host PCIe path); 0
	// defaults to 4.
	Live int
	// Seed drives model initialization and the synthetic sequences.
	Seed int64
	// Trace receives the timeline; nil allocates a fresh tracer.
	Trace *trace.Tracer
}

func (c *TraceRunConfig) defaults() {
	if c.Devices == 0 {
		c.Devices = 2
	}
	if c.Stored == 0 {
		c.Stored = 12
	}
	if c.Live == 0 {
		c.Live = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Trace == nil {
		c.Trace = trace.New()
	}
}

// TraceResult is the JSON-serializable trace summary embedded in
// BENCH_table1.json when csdbench runs with -trace.
type TraceResult struct {
	Jobs    int            `json:"jobs"`
	Profile *trace.Profile `json:"profile"`
}

// TraceRunResult is a completed traced demo: the tracer holding the
// timeline (export with WriteChrome) and its aggregated profile.
type TraceRunResult struct {
	Tracer  *trace.Tracer
	Profile *trace.Profile
	// Jobs is the number of classifications completed.
	Jobs int
}

// TraceRun executes the Table I inference configuration — the paper model
// on the fully-optimized (fixed-point) pipeline — on a fleet with the
// timeline tracer attached to every layer, producing
// the trace the paper's optimization study would read off Vitis Analyzer:
// per-CU kernel events with loop-nest cycle attributions, SSD/PCIe/DDR
// transfer stages, and per-request queue events correlated by job ID.
func TraceRun(cfg TraceRunConfig) (*TraceRunResult, error) {
	cfg.defaults()
	if cfg.Devices < 0 || cfg.Stored < 0 || cfg.Live < 0 {
		return nil, fmt.Errorf("experiments: negative trace-run sizes %+v", cfg)
	}
	m, err := lstm.NewModel(lstm.PaperConfig(), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	seqLen := 100
	vocab := m.Config().VocabSize
	fl, err := fleet.New(m, fleet.Config{
		Nodes: cfg.Devices,
		Block: true,
		Deploy: core.DeployConfig{
			Level: kernels.LevelFixedPoint, Part: fpga.AlveoU200, SeqLen: seqLen,
		},
		Trace: cfg.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer fl.Close()
	// Mirror the scan targets on every device, as the background-scan
	// replication deployment does (untenanted stored requests go to any
	// device).
	offsets := make([]int64, cfg.Stored)
	for s := range offsets {
		offsets[s] = int64(s * seqLen * csd.ItemBytes)
		seq := syntheticSeq(seqLen, vocab, cfg.Seed+int64(s))
		for d := 0; d < fl.Nodes(); d++ {
			if _, err := fl.Device(d).StoreSequence(offsets[s], seq); err != nil {
				return nil, fmt.Errorf("experiments: store sequence %d: %w", s, err)
			}
		}
	}

	// Fan the workload out concurrently so device queues actually form and
	// the timeline shows both devices busy at once.
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Stored+cfg.Live)
	for _, off := range offsets {
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			if _, _, err := fl.PredictStored(ctx, off); err != nil {
				errs <- fmt.Errorf("stored offset %d: %w", off, err)
			}
		}(off)
	}
	for i := 0; i < cfg.Live; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq := syntheticSeq(seqLen, vocab, cfg.Seed+1000+int64(i))
			if _, _, err := fl.Predict(ctx, seq); err != nil {
				errs <- fmt.Errorf("live window %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, fmt.Errorf("experiments: trace run: %w", err)
	}

	return &TraceRunResult{
		Tracer:  cfg.Trace,
		Profile: cfg.Trace.Profile(),
		Jobs:    cfg.Stored + cfg.Live,
	}, nil
}

// syntheticSeq builds a deterministic in-vocabulary sequence (a cheap LCG;
// the traced workload cares about timing shape, not classification truth).
func syntheticSeq(n, vocab int, seed int64) []int {
	seq := make([]int, n)
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range seq {
		x = x*6364136223846793005 + 1442695040888963407
		seq[i] = int((x >> 33) % uint64(vocab))
	}
	return seq
}
