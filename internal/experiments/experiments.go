// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): Fig. 3 (kernel optimization study), Table I (FPGA vs
// CPU vs GPU), Fig. 4 (training convergence), the §IV detection metrics,
// and Table II (dataset overview). Each experiment returns structured rows
// carrying both the measured value and the paper's reported value, so
// cmd/csdbench and EXPERIMENTS.md can show the comparison directly.
package experiments

import (
	"fmt"
	"strings"

	"github.com/kfrida1/csdinf/internal/baseline"
	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/energy"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/metrics"
	"github.com/kfrida1/csdinf/internal/sandbox"
	"github.com/kfrida1/csdinf/internal/train"
)

// PaperFig3 holds the µs values read from the paper's Fig. 3, indexed by
// optimization level as [preprocess, gates, hidden_state].
var PaperFig3 = map[kernels.OptLevel][3]float64{
	kernels.LevelVanilla:    {0.74, 5.076, 1.651},
	kernels.LevelII:         {0.743, 2.001, 1.277},
	kernels.LevelFixedPoint: {0.8, 0.00333, 1.348},
}

// Paper Table I values (µs).
const (
	PaperFPGAMeanUS   = 2.15133
	PaperCPUMeanUS    = 991.5775
	PaperCPUCILowUS   = 217.46576
	PaperCPUCIHighUS  = 1765.68923
	PaperGPUMeanUS    = 741.35336
	PaperGPUCILowUS   = 394.45317
	PaperGPUCIHighUS  = 1088.25355
	PaperSpeedupVsGPU = 344.6
)

// Paper §IV detection metrics.
var PaperDetection = metrics.Scores{
	Accuracy:  0.9833,
	Precision: 0.9789,
	Recall:    0.9890,
	F1:        0.9840,
}

// Fig3Row is one optimization level of the kernel study.
type Fig3Row struct {
	Level        kernels.OptLevel
	PreprocessUS float64
	GatesUS      float64
	HiddenUS     float64
	TotalUS      float64
	// Paper values for the same level.
	Paper      [3]float64
	PaperTotal float64
}

// Fig3 deploys the paper's model at each optimization level on the U200 and
// reports the per-kernel per-item latencies of Fig. 3.
func Fig3() ([]Fig3Row, error) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	rows := make([]Fig3Row, 0, len(kernels.Levels))
	for _, lv := range kernels.Levels {
		p, err := kernels.New(m, kernels.Config{Level: lv, Part: fpga.AlveoU200})
		if err != nil {
			return nil, fmt.Errorf("experiments: level %s: %w", lv, err)
		}
		pre, g, h, tot := p.KernelMicros()
		paper := PaperFig3[lv]
		rows = append(rows, Fig3Row{
			Level: lv, PreprocessUS: pre, GatesUS: g, HiddenUS: h, TotalUS: tot,
			Paper: paper, PaperTotal: paper[0] + paper[1] + paper[2],
		})
	}
	return rows, nil
}

// FormatFig3 renders the rows as an aligned text table.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %14s %14s %12s\n", "Level", "Preprocess", "Gates", "Hidden_state", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.3f µs %13.5f µs %10.3f µs %8.3f µs\n",
			r.Level, r.PreprocessUS, r.GatesUS, r.HiddenUS, r.TotalUS)
		fmt.Fprintf(&b, "%-12s %8.3f    %13.5f    %10.3f    %8.3f    (paper)\n",
			"", r.Paper[0], r.Paper[1], r.Paper[2], r.PaperTotal)
	}
	return b.String()
}

// TableIConfig controls the hardware-comparison experiment.
type TableIConfig struct {
	// Trials is the number of per-item latency samples for the CPU and GPU
	// rows; 0 defaults to 1000.
	Trials int
	// Seed drives the baseline latency models.
	Seed int64
	// MeasureGo additionally measures the plain-Go forward pass on this
	// machine (an honesty reference absent from the paper).
	MeasureGo bool
}

// TableIRow is one platform of Table I.
type TableIRow struct {
	Platform    string
	MeanUS      float64
	CILowUS     float64
	CIHighUS    float64
	HasCI       bool
	PaperMeanUS float64 // 0 when the paper has no corresponding row
}

// TableIResult is the complete hardware comparison.
type TableIResult struct {
	Rows []TableIRow
	// SpeedupVsGPU is GPU mean / FPGA per-item time (paper: 344.6×).
	SpeedupVsGPU float64
	// SpeedupVsCPU is CPU mean / FPGA per-item time.
	SpeedupVsCPU float64
}

// TableI reproduces the paper's hardware comparison: the FPGA per-item
// latency from the fully-optimized pipeline (deterministic, like the
// paper's emulation-mode figure), and CPU/GPU rows sampled from the
// calibrated framework-overhead models with 95% spread intervals.
func TableI(cfg TableIConfig) (*TableIResult, error) {
	if cfg.Trials == 0 {
		cfg.Trials = 1000
	}
	if cfg.Trials < 0 {
		return nil, fmt.Errorf("experiments: negative trials %d", cfg.Trials)
	}
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	pipe, err := kernels.New(m, kernels.Config{Level: kernels.LevelFixedPoint, Part: fpga.AlveoU200})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	_, _, _, fpgaUS := pipe.KernelMicros()

	res := &TableIResult{}
	res.Rows = append(res.Rows, TableIRow{
		Platform: "FPGA (CSD)", MeanUS: fpgaUS, PaperMeanUS: PaperFPGAMeanUS,
	})

	for _, plat := range []struct {
		model     baseline.FrameworkModel
		paperMean float64
	}{
		{baseline.CPUXeon, PaperCPUMeanUS},
		{baseline.GPUA100, PaperGPUMeanUS},
	} {
		sample, err := plat.model.SampleTrials(cfg.Trials, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", plat.model.Name, err)
		}
		s, err := metrics.Summarize(sample)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", plat.model.Name, err)
		}
		low, high, err := metrics.SpreadCI(sample)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", plat.model.Name, err)
		}
		res.Rows = append(res.Rows, TableIRow{
			Platform: plat.model.Name, MeanUS: s.Mean,
			CILowUS: low, CIHighUS: high, HasCI: true,
			PaperMeanUS: plat.paperMean,
		})
	}

	if cfg.MeasureGo {
		seq := make([]int, 100)
		for i := range seq {
			seq[i] = i % m.Config().VocabSize
		}
		sample, err := baseline.MeasureGoCPU(m, seq, max(cfg.Trials/10, 5))
		if err != nil {
			return nil, fmt.Errorf("experiments: go baseline: %w", err)
		}
		s, err := metrics.Summarize(sample)
		if err != nil {
			return nil, fmt.Errorf("experiments: go baseline: %w", err)
		}
		low, high, err := metrics.SpreadCI(sample)
		if err != nil {
			return nil, fmt.Errorf("experiments: go baseline: %w", err)
		}
		res.Rows = append(res.Rows, TableIRow{
			Platform: "CPU (plain Go, measured here)", MeanUS: s.Mean,
			CILowUS: low, CIHighUS: high, HasCI: true,
		})
	}

	res.SpeedupVsGPU = res.Rows[2].MeanUS / fpgaUS
	res.SpeedupVsCPU = res.Rows[1].MeanUS / fpgaUS
	return res, nil
}

// FormatTableI renders the comparison as an aligned text table.
func FormatTableI(res *TableIResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %16s %30s %14s\n", "Platform", "Execution time", "95% CI", "Paper")
	for _, r := range res.Rows {
		ci := "N/A"
		if r.HasCI {
			ci = fmt.Sprintf("%.5f µs - %.5f µs", r.CILowUS, r.CIHighUS)
		}
		paper := "-"
		if r.PaperMeanUS > 0 {
			paper = fmt.Sprintf("%.5f µs", r.PaperMeanUS)
		}
		fmt.Fprintf(&b, "%-32s %13.5f µs %30s %14s\n", r.Platform, r.MeanUS, ci, paper)
	}
	fmt.Fprintf(&b, "FPGA speedup vs GPU: %.1f× (paper: %.1f×); vs CPU: %.1f×\n",
		res.SpeedupVsGPU, PaperSpeedupVsGPU, res.SpeedupVsCPU)
	return b.String()
}

// heldOutFraction is the share of the corpus RunTraining holds out for
// evaluation.
const heldOutFraction = 0.2

// TrainRunConfig controls the Fig. 4 / detection-metrics training run.
type TrainRunConfig struct {
	// RansomwareCount and BenignCount scale the synthetic corpus. Zero
	// defaults to a 1/10-scale paper corpus (1334/1566): the paper's full
	// 29K corpus trains identically but takes ~10× longer in pure Go.
	RansomwareCount int
	BenignCount     int
	// Window and Stride control extraction; zero defaults to 100/25.
	Window, Stride int
	// Epochs, BatchSize and Seed forward to the trainer (zero = defaults);
	// the trainer takes its default learning rate.
	Epochs    int
	BatchSize int
	Seed      int64
	// TargetAccuracy stops early; 0 = run all epochs.
	TargetAccuracy float64
}

// TrainRun is the outcome of the training experiment, serving both Fig. 4
// (History) and the §IV metrics (Final).
type TrainRun struct {
	*train.Result
	TrainSize, TestSize int
	Dataset             *dataset.Dataset
}

// RunTraining builds the corpus, splits it, and trains to convergence.
func RunTraining(cfg TrainRunConfig) (*TrainRun, error) {
	if cfg.RansomwareCount == 0 {
		cfg.RansomwareCount = dataset.PaperRansomwareCount / 10
	}
	if cfg.BenignCount == 0 {
		cfg.BenignCount = dataset.PaperBenignCount / 10
	}
	ds, err := dataset.Build(dataset.BuildConfig{
		RansomwareCount: cfg.RansomwareCount,
		BenignCount:     cfg.BenignCount,
		Window:          cfg.Window,
		Stride:          cfg.Stride,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: build corpus: %w", err)
	}
	trainDS, testDS, err := ds.Split(heldOutFraction, cfg.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("experiments: split: %w", err)
	}
	res, err := train.Train(trainDS, testDS, train.Config{
		Epochs:         cfg.Epochs,
		BatchSize:      cfg.BatchSize,
		Seed:           cfg.Seed,
		TargetAccuracy: cfg.TargetAccuracy,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: train: %w", err)
	}
	return &TrainRun{
		Result:    res,
		TrainSize: len(trainDS.Sequences),
		TestSize:  len(testDS.Sequences),
		Dataset:   ds,
	}, nil
}

// FormatFig4 renders the convergence trajectory.
func FormatFig4(run *TrainRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Training convergence (%d train / %d test sequences)\n", run.TrainSize, run.TestSize)
	fmt.Fprintf(&b, "%8s %12s %10s %10s %10s %10s\n", "Epoch", "TrainLoss", "Accuracy", "Precision", "Recall", "F1")
	for _, rec := range run.History {
		fmt.Fprintf(&b, "%8d %12.4f %10.4f %10.4f %10.4f %10.4f\n",
			rec.Epoch, rec.TrainLoss, rec.Test.Accuracy, rec.Test.Precision, rec.Test.Recall, rec.Test.F1)
	}
	best, epoch := run.BestAccuracy()
	fmt.Fprintf(&b, "Peak accuracy %.4f at epoch %d (paper: %.4f at ~4K epochs)\n",
		best, epoch, PaperDetection.Accuracy)
	return b.String()
}

// FormatMetrics renders the §IV detection metrics next to the paper's.
func FormatMetrics(run *TrainRun) string {
	var b strings.Builder
	f := run.Final
	fmt.Fprintf(&b, "%12s %10s %10s\n", "Metric", "Measured", "Paper")
	fmt.Fprintf(&b, "%12s %10.4f %10.4f\n", "Accuracy", f.Accuracy, PaperDetection.Accuracy)
	fmt.Fprintf(&b, "%12s %10.4f %10.4f\n", "Precision", f.Precision, PaperDetection.Precision)
	fmt.Fprintf(&b, "%12s %10.4f %10.4f\n", "Recall", f.Recall, PaperDetection.Recall)
	fmt.Fprintf(&b, "%12s %10.4f %10.4f\n", "F1", f.F1, PaperDetection.F1)
	fmt.Fprintf(&b, "Confusion: %s\n", run.FinalConfusion.String())
	return b.String()
}

// TableIIRow is one family of the dataset overview.
type TableIIRow struct {
	Family         string
	Instances      int
	Encrypts       bool
	SelfPropagates bool
	// Windows counts this family's sequences in the generated corpus.
	Windows int
}

// TableII summarizes the ransomware corpus per family, mirroring the
// paper's Table II, with window counts from the provided dataset (nil is
// allowed: counts are then omitted).
func TableII(ds *dataset.Dataset) []TableIIRow {
	perSource := map[string]int{}
	if ds != nil {
		perSource = ds.SourceCounts()
	}
	rows := make([]TableIIRow, 0, len(sandbox.Families))
	for _, fam := range sandbox.Families {
		windows := 0
		for src, n := range perSource {
			if strings.HasPrefix(src, fam.Name+".") {
				windows += n
			}
		}
		rows = append(rows, TableIIRow{
			Family:         fam.Name,
			Instances:      fam.Variants,
			Encrypts:       fam.Encrypts,
			SelfPropagates: fam.SelfPropagates,
			Windows:        windows,
		})
	}
	return rows
}

// FormatTableII renders the dataset overview.
func FormatTableII(rows []TableIIRow, ds *dataset.Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %12s %18s %10s\n", "Family", "Instances", "Encryption", "Self-propagation", "Windows")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	totalVariants, totalWindows := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10d %12s %18s %10d\n",
			r.Family, r.Instances, mark(r.Encrypts), mark(r.SelfPropagates), r.Windows)
		totalVariants += r.Instances
		totalWindows += r.Windows
	}
	fmt.Fprintf(&b, "Total: %d variants, %d ransomware windows", totalVariants, totalWindows)
	if ds != nil {
		r, ben := ds.Counts()
		fmt.Fprintf(&b, "; corpus %d sequences (%d ransomware / %d benign, %.0f%% ransomware)",
			len(ds.Sequences), r, ben, ds.RansomwareFraction()*100)
	}
	b.WriteString("\n")
	return b.String()
}

// EnergyRow is one platform of the energy-per-inference comparison.
type EnergyRow = energy.Estimate

// EnergyResult is the energy comparison behind the paper's efficiency
// claims (§I, §VII): the CSD wins on power and latency simultaneously.
type EnergyResult struct {
	Rows []EnergyRow
	// SavingsVsCPU and SavingsVsGPU are the CSD's energy-per-item
	// advantage.
	SavingsVsCPU float64
	SavingsVsGPU float64
}

// Energy builds the three-platform energy comparison from the deployed
// fixed-point design and the Table I latencies.
func Energy() (*EnergyResult, error) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	pipe, err := kernels.New(m, kernels.Config{Level: kernels.LevelFixedPoint, Part: fpga.AlveoU200})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	_, _, _, fpgaUS := pipe.KernelMicros()
	rows, err := energy.Compare(pipe.Device().Used(), fpgaUS, PaperCPUMeanUS, PaperGPUMeanUS)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &EnergyResult{
		Rows:         rows,
		SavingsVsCPU: energy.SavingsVs(rows[0], rows[1]),
		SavingsVsGPU: energy.SavingsVs(rows[0], rows[2]),
	}, nil
}

// FormatEnergy renders the energy comparison.
func FormatEnergy(res *EnergyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %16s %16s\n", "Platform", "Power", "Latency/item", "Energy/item")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-24s %8.1f W %13.3f µs %13.2f µJ\n",
			r.Platform, r.Watts, r.LatencyUS, r.MicroJoules)
	}
	fmt.Fprintf(&b, "CSD energy savings: %.0f× vs CPU, %.0f× vs GPU\n",
		res.SavingsVsCPU, res.SavingsVsGPU)
	return b.String()
}
