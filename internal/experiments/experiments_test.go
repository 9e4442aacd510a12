package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/kfrida1/csdinf/internal/kernels"
)

func TestFig3ShapeMatchesPaper(t *testing.T) {
	rows, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 levels", len(rows))
	}
	byLevel := map[kernels.OptLevel]Fig3Row{}
	for _, r := range rows {
		byLevel[r.Level] = r
		if math.Abs(r.TotalUS-(r.PreprocessUS+r.GatesUS+r.HiddenUS)) > 1e-9 {
			t.Errorf("%v total inconsistent", r.Level)
		}
	}
	v, ii, fx := byLevel[kernels.LevelVanilla], byLevel[kernels.LevelII], byLevel[kernels.LevelFixedPoint]
	// Headline shape assertions from the paper's prose.
	if !(v.TotalUS > ii.TotalUS && ii.TotalUS > fx.TotalUS) {
		t.Errorf("totals not monotone: %v %v %v", v.TotalUS, ii.TotalUS, fx.TotalUS)
	}
	if fx.GatesUS > 0.05 {
		t.Errorf("fixed-point gates = %v µs, should be near zero", fx.GatesUS)
	}
	// "II minimization reduced the execution time of kernel_hidden_state by
	// a relatively wide margin".
	if ii.HiddenUS >= v.HiddenUS {
		t.Errorf("II did not reduce hidden_state: %v vs %v", ii.HiddenUS, v.HiddenUS)
	}
	// "the execution time of kernel_preprocess remained fairly fixed".
	if math.Abs(v.PreprocessUS-ii.PreprocessUS) > 0.1 {
		t.Errorf("preprocess moved Vanilla→II: %v vs %v", v.PreprocessUS, ii.PreprocessUS)
	}
	// Total reduction factor ~3.3-3.5× (7.15→2.15 in the paper).
	if ratio := v.TotalUS / fx.TotalUS; ratio < 2.8 || ratio > 4.0 {
		t.Errorf("total reduction = %.2f×, paper ~3.4×", ratio)
	}
}

func TestFormatFig3(t *testing.T) {
	rows, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFig3(rows)
	for _, want := range []string{"Vanilla", "II", "Fixed-point", "paper", "Gates"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig3 missing %q:\n%s", want, out)
		}
	}
}

func TestTableIOrderingAndSpeedup(t *testing.T) {
	res, err := TableI(TableIConfig{Trials: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	fpga, cpu, gpu := res.Rows[0], res.Rows[1], res.Rows[2]
	if !(fpga.MeanUS < gpu.MeanUS && gpu.MeanUS < cpu.MeanUS) {
		t.Fatalf("ordering broken: FPGA %v GPU %v CPU %v", fpga.MeanUS, gpu.MeanUS, cpu.MeanUS)
	}
	if fpga.HasCI {
		t.Error("FPGA row should have no CI (emulation mode), like the paper")
	}
	if !cpu.HasCI || !gpu.HasCI {
		t.Error("CPU/GPU rows must carry CIs")
	}
	// Speedup within 20% of the paper's 344.6×.
	if rel := math.Abs(res.SpeedupVsGPU-PaperSpeedupVsGPU) / PaperSpeedupVsGPU; rel > 0.20 {
		t.Errorf("speedup vs GPU = %.1f×, paper 344.6× (off %.0f%%)", res.SpeedupVsGPU, rel*100)
	}
	// CPU CI should be wide, bracketing the mean asymmetrically-ish like the
	// paper's (lower bound far below mean).
	if cpu.CILowUS >= cpu.MeanUS/2 {
		t.Errorf("CPU CI low %v not far below mean %v", cpu.CILowUS, cpu.MeanUS)
	}
}

func TestTableIWithGoMeasurement(t *testing.T) {
	res, err := TableI(TableIConfig{Trials: 100, Seed: 1, MeasureGo: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 with MeasureGo", len(res.Rows))
	}
	goRow := res.Rows[3]
	if goRow.MeanUS <= 0 {
		t.Fatal("go measurement empty")
	}
	out := FormatTableI(res)
	if !strings.Contains(out, "N/A") || !strings.Contains(out, "344.6") {
		t.Errorf("FormatTableI missing expected fields:\n%s", out)
	}
}

func TestTableIValidation(t *testing.T) {
	if _, err := TableI(TableIConfig{Trials: -5}); err == nil {
		t.Fatal("negative trials: expected error")
	}
}

func TestRunTrainingSmall(t *testing.T) {
	run, err := RunTraining(TrainRunConfig{
		RansomwareCount: 152,
		BenignCount:     155,
		Window:          30,
		Stride:          15,
		Epochs:          15,
		BatchSize:       16,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.TrainSize+run.TestSize != 307 {
		t.Fatalf("split sizes = %d + %d", run.TrainSize, run.TestSize)
	}
	// Short (30-call) windows subsampled from full-length traces are a hard
	// variant of the paper's task; anything well above chance demonstrates
	// the harness learns.
	if run.Final.Accuracy < 0.75 {
		t.Fatalf("accuracy = %v on small corpus", run.Final.Accuracy)
	}
	fig4 := FormatFig4(run)
	if !strings.Contains(fig4, "Peak accuracy") || !strings.Contains(fig4, "0.9833") {
		t.Errorf("FormatFig4 missing fields:\n%s", fig4)
	}
	met := FormatMetrics(run)
	for _, want := range []string{"Accuracy", "Precision", "Recall", "F1", "Confusion"} {
		if !strings.Contains(met, want) {
			t.Errorf("FormatMetrics missing %q", want)
		}
	}
}

func TestTableII(t *testing.T) {
	run, err := RunTraining(TrainRunConfig{
		RansomwareCount: 152, BenignCount: 62, Window: 20, Stride: 20,
		Epochs: 1, BatchSize: 32, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := TableII(run.Dataset)
	if len(rows) != 10 {
		t.Fatalf("families = %d, want 10", len(rows))
	}
	totalVariants, totalWindows := 0, 0
	for _, r := range rows {
		totalVariants += r.Instances
		totalWindows += r.Windows
		if !r.Encrypts {
			t.Errorf("%s must encrypt", r.Family)
		}
	}
	if totalVariants != 76 {
		t.Errorf("variants = %d, want 76 (Table II rows)", totalVariants)
	}
	if totalWindows != 152 {
		t.Errorf("ransomware windows = %d, want 152", totalWindows)
	}
	out := FormatTableII(rows, run.Dataset)
	for _, want := range []string{"Ryuk", "Wannacry", "Self-propagation", "Total: 76 variants"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTableII missing %q:\n%s", want, out)
		}
	}
	// nil dataset allowed.
	if rows := TableII(nil); len(rows) != 10 {
		t.Error("TableII(nil) should still list families")
	}
}

func TestEnergyComparison(t *testing.T) {
	res, err := Energy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.SavingsVsGPU < 100 || res.SavingsVsCPU < 100 {
		t.Fatalf("CSD energy savings too small: %v / %v", res.SavingsVsCPU, res.SavingsVsGPU)
	}
	out := FormatEnergy(res)
	for _, want := range []string{"FPGA (CSD)", "Energy/item", "savings"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatEnergy missing %q:\n%s", want, out)
		}
	}
}
