package csdinf

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// Simulated FPGA time is reported through b.ReportMetric as "sim_µs/item"
// (the quantity the paper's figures plot); ns/op measures how fast the
// simulation itself runs on the build machine and is not a paper metric.
// `go test -bench . -benchmem` regenerates everything; cmd/csdbench prints
// the same results as formatted tables.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/baseline"
	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/experiments"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/hls"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
	"github.com/kfrida1/csdinf/internal/train"
)

func paperModel(b *testing.B) *lstm.Model {
	b.Helper()
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func paperSeq() []int {
	seq := make([]int, 100)
	rng := rand.New(rand.NewSource(7))
	for i := range seq {
		seq[i] = rng.Intn(278)
	}
	return seq
}

// benchFig3Level classifies full sequences at one optimization level and
// reports the simulated per-item latency (the Fig. 3 bar heights).
func benchFig3Level(b *testing.B, level kernels.OptLevel) {
	m := paperModel(b)
	p, err := kernels.New(m, kernels.Config{Level: level, Part: fpga.AlveoU200})
	if err != nil {
		b.Fatal(err)
	}
	seq := paperSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Classify(seq); err != nil {
			b.Fatal(err)
		}
	}
	pre, g, h, tot := p.KernelMicros()
	b.ReportMetric(pre, "sim_pre_µs/item")
	b.ReportMetric(g, "sim_gates_µs/item")
	b.ReportMetric(h, "sim_hidden_µs/item")
	b.ReportMetric(tot, "sim_µs/item")
}

// Fig. 3: per-kernel inference time under each cumulative optimization.
func BenchmarkFig3_Vanilla(b *testing.B)    { benchFig3Level(b, kernels.LevelVanilla) }
func BenchmarkFig3_II(b *testing.B)         { benchFig3Level(b, kernels.LevelII) }
func BenchmarkFig3_FixedPoint(b *testing.B) { benchFig3Level(b, kernels.LevelFixedPoint) }

// Table I, FPGA row: the fully-optimized per-item forward pass (paper:
// 2.15133 µs).
func BenchmarkTableI_FPGA(b *testing.B) {
	benchFig3Level(b, kernels.LevelFixedPoint)
}

// Table I, CPU row: per-item latency samples from the calibrated
// framework-dispatch model (paper: 991.58 µs mean).
func BenchmarkTableI_CPUModel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += baseline.CPUXeon.SampleItem(rng)
	}
	b.ReportMetric(sum/float64(b.N), "sim_µs/item")
}

// Table I, GPU row: per-item latency samples from the calibrated
// kernel-launch model (paper: 741.35 µs mean).
func BenchmarkTableI_GPUModel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += baseline.GPUA100.SampleItem(rng)
	}
	b.ReportMetric(sum/float64(b.N), "sim_µs/item")
}

// Table I honesty row: the real, framework-free Go forward pass measured on
// this machine (per item = per 100-item sequence / 100).
func BenchmarkTableI_GoCPU(b *testing.B) {
	m := paperModel(b)
	seq := paperSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(seq); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perItemUS := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 100 / 1000
	b.ReportMetric(perItemUS, "real_µs/item")
}

// Fig. 4: cost of one training epoch (the x-axis unit of the convergence
// curve) on a 1/40-scale corpus.
func BenchmarkFig4_TrainingEpoch(b *testing.B) {
	ds, err := dataset.Build(dataset.BuildConfig{
		RansomwareCount: 304, BenignCount: 341, Window: 100, Stride: 25, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	trainDS, testDS, err := ds.Split(0.2, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Train(trainDS, testDS, train.Config{
			Epochs: 1, BatchSize: 32, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Table II: synthesizing the ransomware/benign corpus at 1/10 scale
// (sandbox traces + sliding-window extraction + shuffle).
func BenchmarkTableII_DatasetGeneration(b *testing.B) {
	cfg := dataset.BuildConfig{
		RansomwareCount: 1334, BenignCount: 1566, Window: 100, Stride: 25, Seed: 6,
	}
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// §IV metrics: evaluation throughput of a trained model over a held-out set.
func BenchmarkMetrics_Evaluate(b *testing.B) {
	ds, err := dataset.Build(dataset.BuildConfig{
		RansomwareCount: 152, BenignCount: 155, Window: 100, Stride: 50, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := paperModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Evaluate(m, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation (§II): P2P transfer through the on-board switch vs the
// traditional host-mediated path, for one stored 100-item sequence.
func BenchmarkAblation_P2PvsHost(b *testing.B) {
	setup := func(b *testing.B) (*SmartSSD, *Engine) {
		b.Helper()
		dev, err := NewSmartSSD(CSDConfig{})
		if err != nil {
			b.Fatal(err)
		}
		m := paperModel(b)
		eng, err := Deploy(dev, m, DeployConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.StoreSequence(0, paperSeq()); err != nil {
			b.Fatal(err)
		}
		return dev, eng
	}
	b.Run("p2p", func(b *testing.B) {
		_, eng := setup(b)
		var last Timing
		for i := 0; i < b.N; i++ {
			_, timing, err := eng.PredictStored(context.Background(), 0)
			if err != nil {
				b.Fatal(err)
			}
			last = timing
		}
		b.ReportMetric(float64(last.Transfer.Nanoseconds())/1000, "sim_xfer_µs")
	})
	b.Run("host", func(b *testing.B) {
		_, eng := setup(b)
		var last Timing
		for i := 0; i < b.N; i++ {
			_, timing, err := eng.PredictStoredViaHost(context.Background(), 0)
			if err != nil {
				b.Fatal(err)
			}
			last = timing
		}
		b.ReportMetric(float64(last.Transfer.Nanoseconds())/1000, "sim_xfer_µs")
	})
}

// Ablation (§III-C): the four-CU gate parallelization vs serializing onto
// fewer compute units.
func BenchmarkAblation_GateCUs(b *testing.B) {
	m := paperModel(b)
	for _, cus := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "cu1", 2: "cu2", 4: "cu4"}[cus], func(b *testing.B) {
			p, err := kernels.New(m, kernels.Config{Level: kernels.LevelVanilla, GateCUs: cus})
			if err != nil {
				b.Fatal(err)
			}
			seq := paperSeq()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Classify(seq); err != nil {
					b.Fatal(err)
				}
			}
			_, _, _, tot := p.KernelMicros()
			b.ReportMetric(tot, "sim_µs/item")
		})
	}
}

// Ablation (§III-D): unroll-factor sweep of the fixed-point gate MAC loop —
// the latency/DSP trade-off that motivates full unrolling.
func BenchmarkAblation_Unroll(b *testing.B) {
	for _, u := range []int{1, 4, 16, 64, 256, 1280} {
		b.Run(map[int]string{1: "u1", 4: "u4", 16: "u16", 64: "u64", 256: "u256", 1280: "u1280"}[u],
			func(b *testing.B) {
				loop := hls.Loop{
					Name: "mac", Trip: 1280,
					Body:           []hls.Op{hls.IntMul, hls.IntAdd},
					Pipeline:       true,
					Unroll:         u,
					ArrayPartition: true,
				}
				var s hls.Schedule
				var err error
				for i := 0; i < b.N; i++ {
					s, err = hls.ScheduleLoop(loop)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(s.Cycles)/300, "sim_µs")
				b.ReportMetric(float64(s.Res.DSP), "DSPs")
			})
	}
}

// Ablation (§III-D): softsign vs tanh — the activation substitution that
// avoids exp() on the FPGA. Simulated cycles per activation evaluation.
func BenchmarkAblation_Activations(b *testing.B) {
	cases := []struct {
		name string
		body []hls.Op
	}{
		// softsign: |x| + add + constant divide.
		{"softsign_fixed", []hls.Op{hls.IntAbs, hls.IntAdd, hls.IntDivConst}},
		// tanh via exp: two exp, add, sub, divide.
		{"tanh_float", []hls.Op{hls.FExp, hls.FExp, hls.FAdd, hls.FAdd, hls.FDiv}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			loop := hls.Loop{Name: tc.name, Trip: 32, Body: tc.body, Pipeline: true, ArrayPartition: true}
			var s hls.Schedule
			var err error
			for i := 0; i < b.N; i++ {
				s, err = hls.ScheduleLoop(loop)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Cycles)/300, "sim_µs")
			b.ReportMetric(float64(s.Res.LUT), "LUTs")
		})
	}
}

// Ablation (§III-C): dataflow overlap — the steady-state initiation
// interval when kernel_preprocess works on item t+1 while gates and
// hidden_state process item t, vs the paper's summed per-item time.
func BenchmarkAblation_Dataflow(b *testing.B) {
	m := paperModel(b)
	p, err := kernels.New(m, kernels.Config{Level: kernels.LevelFixedPoint})
	if err != nil {
		b.Fatal(err)
	}
	seq := paperSeq()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Classify(seq); err != nil {
			b.Fatal(err)
		}
	}
	_, _, _, sum := p.ItemCycles()
	b.ReportMetric(float64(sum)/300, "sim_sum_µs/item")
	b.ReportMetric(float64(p.PipelinedItemCycles())/300, "sim_overlap_µs/item")
}

// Ablation (§III-D): fixed-point scale sweep — the simulation cost of
// classifying one window at scales 10³, 10⁶ and 10⁹.
func BenchmarkAblation_FixedPointScale(b *testing.B) {
	m := paperModel(b)
	for _, tc := range []struct {
		name  string
		scale int64
	}{
		{"1e3", 1_000}, {"1e6", 1_000_000}, {"1e9", 1_000_000_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, err := kernels.New(m, kernels.Config{Level: kernels.LevelFixedPoint, Scale: tc.scale})
			if err != nil {
				b.Fatal(err)
			}
			seq := paperSeq()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Classify(seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// End-to-end: the complete experiment harness (all three Fig. 3 levels
// deployed and measured), as cmd/csdbench runs it.
func BenchmarkExperiments_Fig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation (§VI future work): mixed precision — DSP-packed narrow gate
// MACs that fit the SmartSSD's KU15P, vs the full fixed-point design that
// needs the U200.
func BenchmarkAblation_MixedPrecision(b *testing.B) {
	m := paperModel(b)
	for _, tc := range []struct {
		name  string
		level kernels.OptLevel
		part  fpga.Part
	}{
		{"fixed_u200", kernels.LevelFixedPoint, fpga.AlveoU200},
		{"mixed_u200", kernels.LevelMixed, fpga.AlveoU200},
		{"mixed_ku15p", kernels.LevelMixed, fpga.KU15P},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, err := kernels.New(m, kernels.Config{Level: tc.level, Part: tc.part})
			if err != nil {
				b.Fatal(err)
			}
			seq := paperSeq()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Classify(seq); err != nil {
					b.Fatal(err)
				}
			}
			_, _, _, tot := p.KernelMicros()
			b.ReportMetric(tot, "sim_µs/item")
			b.ReportMetric(float64(p.Device().Used().DSP), "DSPs")
		})
	}
}

// Ablation (§III-C): AXI4-Stream kernel links vs global-memory buffers.
func BenchmarkAblation_Streaming(b *testing.B) {
	m := paperModel(b)
	for _, tc := range []struct {
		name      string
		streaming bool
	}{
		{"buffered", false},
		{"streaming", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, err := kernels.New(m, kernels.Config{
				Level: kernels.LevelFixedPoint, Streaming: tc.streaming,
			})
			if err != nil {
				b.Fatal(err)
			}
			seq := paperSeq()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Classify(seq); err != nil {
					b.Fatal(err)
				}
			}
			_, _, _, tot := p.KernelMicros()
			b.ReportMetric(tot, "sim_µs/item")
		})
	}
}

// Concurrent serving (§II scalability): 64 goroutines push live windows
// through a fleet of 1/2/4 devices — bounded queues, least-busy placement.
// Reports simulated device time per request.
func BenchmarkServe_Throughput(b *testing.B) {
	m := paperModel(b)
	seq := paperSeq()
	for _, devices := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "dev1", 2: "dev2", 4: "dev4"}[devices], func(b *testing.B) {
			s, err := NewFleet(m, FleetConfig{Nodes: devices, Block: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.SetParallelism(64)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, _, err := s.Predict(context.Background(), seq); err != nil {
						b.Fatal(err)
					}
				}
			})
			var busy time.Duration
			var jobs int64
			for _, st := range s.Stats() {
				busy += st.Serve.BusyTime
				jobs += st.Serve.Jobs
			}
			if jobs > 0 {
				b.ReportMetric(float64(busy.Microseconds())/float64(jobs), "sim_µs/req")
			}
		})
	}
}

// Background scanning (§I): classify SSD-resident sequences continuously
// with zero host involvement; reports simulated device time per sequence.
func BenchmarkBackgroundScan(b *testing.B) {
	dev, err := NewSmartSSD(CSDConfig{})
	if err != nil {
		b.Fatal(err)
	}
	m := paperModel(b)
	eng, err := Deploy(dev, m, DeployConfig{})
	if err != nil {
		b.Fatal(err)
	}
	offsets := make([]int64, 32)
	for i := range offsets {
		offsets[i] = int64(i * 4096)
		if _, err := dev.StoreSequence(offsets[i], paperSeq()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var last *core.ScanResult
	for i := 0; i < b.N; i++ {
		last, err = eng.ScanStored(context.Background(), offsets)
		if err != nil {
			b.Fatal(err)
		}
	}
	perSeq := float64(last.Timing.Transfer.Microseconds()+last.Timing.Compute.Microseconds()) / float64(len(offsets))
	b.ReportMetric(perSeq, "sim_µs/seq")
}

// BenchmarkServe_WallClock is the observability-overhead gate's benchmark
// twin: one fully-instrumented request per iteration through a one-device
// fleet, serialized, with allocation reporting. ns/op and allocs/op here
// are the "instrumented" leg of `csdbench -experiment wallclock` plus the
// fleet's placement and admission. The allocs/op figure is the
// interesting one: the observability path's allocation profile is
// deterministic, so growth means new per-request allocations crept into
// the hot path. CI's bench-gate holds that leg's allocs/op and B/op within
// 1% of bench-results/baseline-wallclock.json; its ns/op is not gated.
func BenchmarkServe_WallClock(b *testing.B) {
	m := paperModel(b)
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(256)
	events := eventlog.New(eventlog.Config{})
	defer events.Close()
	profiler, err := prof.New(prof.Config{
		SampleEvery: -1, MutexFraction: -1, BlockRateNS: -1,
		CountAllocs: true, Telemetry: reg, Events: events,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer profiler.Close()
	s, err := NewFleet(m, FleetConfig{
		Nodes:     1,
		Telemetry: reg, Spans: spans, Trace: trace.New(), Events: events, Prof: profiler,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	seq := paperSeq()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Predict(ctx, seq); err != nil {
			b.Fatal(err)
		}
	}
}
