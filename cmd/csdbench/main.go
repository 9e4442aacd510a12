// Command csdbench regenerates every table and figure of the paper's
// evaluation section and prints them next to the paper's reported values.
//
// Usage:
//
//	csdbench -experiment all                  # everything (default)
//	csdbench -experiment fig3                 # kernel optimization study
//	csdbench -experiment table1 -trials 1000  # FPGA vs CPU vs GPU
//	csdbench -experiment table1 -trace out.json  # + device timeline trace
//	csdbench -experiment fig4 -epochs 40      # training convergence
//	csdbench -experiment metrics              # detection accuracy/P/R/F1
//	csdbench -experiment table2               # dataset overview
//	csdbench -experiment energy               # energy per inference item
//	csdbench -experiment wallclock            # observability-overhead self-audit
//	csdbench -experiment quality              # detection-quality scorecard
//
// With -json DIR each experiment also writes DIR/BENCH_<experiment>.json;
// cmd/benchdiff gates the fig3, table1, table2, energy, wallclock and
// quality documents against the checked-in
// bench-results/baseline-<experiment>.json.
//
// Pass -prof to run the continuous profiler alongside any experiment and
// write its snapshot to <prof-dir>/prof.json on exit.
//
// The fig4/metrics experiments train on a 1/10-scale synthetic corpus by
// default (the full 29K corpus behaves identically but takes ~10× longer in
// pure Go); pass -full for the paper-sized corpus.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/experiments"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csdbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("csdbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "fig3 | table1 | fig4 | metrics | table2 | energy | wallclock | quality | all")
	trials := fs.Int("trials", 1000, "CPU/GPU latency samples for table1")
	epochs := fs.Int("epochs", 40, "training epochs for fig4/metrics")
	seed := fs.Int64("seed", 1, "seed for all randomized stages")
	full := fs.Bool("full", false, "use the paper-sized 29K corpus for fig4/metrics (slow)")
	measureGo := fs.Bool("measure-go", true, "include the plain-Go CPU measurement in table1")
	jsonDir := fs.String("json", "", "directory to also write results as BENCH_<experiment>.json (empty: off)")
	tracePath := fs.String("trace", "", "with table1: run the traced serving demo and write a Chrome trace (Perfetto-loadable) to this file")
	iterations := fs.Int("iterations", 2000, "measured requests per leg for the wallclock self-audit")
	profOn := fs.Bool("prof", false, "run the continuous profiler during the experiment")
	profDir := fs.String("prof-dir", "bench-results", "with -prof: directory for the prof.json snapshot artifact")
	qualityRef := fs.String("quality-reference", "bench-results/quality-reference.json",
		"with quality: pinned score distribution for the drift check (missing file: drift check off)")
	qualityWriteRef := fs.String("quality-write-reference", "",
		"with quality: additionally pin this run's score distribution to the given path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *profOn {
		p, err := prof.New(prof.Config{})
		if err != nil {
			return err
		}
		defer func() {
			if path, err := p.WriteSnapshot(*profDir); err != nil {
				fmt.Fprintln(os.Stderr, "csdbench: write prof snapshot:", err)
			} else {
				fmt.Printf("(wrote %s)\n", path)
			}
			p.Close()
		}()
	}

	runs := map[string]func() error{
		"fig3":    func() error { return runFig3(*jsonDir) },
		"table1":  func() error { return runTableI(*jsonDir, *trials, *seed, *measureGo, *tracePath) },
		"fig4":    func() error { return runTraining(*jsonDir, *epochs, *seed, *full, true, false) },
		"metrics": func() error { return runTraining(*jsonDir, *epochs, *seed, *full, false, true) },
		"table2":  func() error { return runTableII(*jsonDir, *seed) },
		"energy":  func() error { return runEnergy(*jsonDir) },
		"wallclock": func() error {
			return runWallClock(*jsonDir, *iterations, *seed)
		},
		"quality": func() error {
			return runQuality(*jsonDir, *epochs, *seed, *qualityRef, *qualityWriteRef)
		},
	}
	if *experiment == "all" {
		for _, name := range []string{"fig3", "table1", "table2", "energy"} {
			if err := runs[name](); err != nil {
				return err
			}
		}
		// One training run serves both fig4 and metrics.
		return runTraining(*jsonDir, *epochs, *seed, *full, true, true)
	}
	r, ok := runs[*experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want fig3, table1, fig4, metrics, table2, energy, wallclock, quality, all)", *experiment)
	}
	return r()
}

// writeBench writes an experiment's structured result to
// dir/BENCH_<experiment>.json (no-op when dir is empty).
func writeBench(dir, experiment string, result any) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+experiment+".json")
	doc := struct {
		Experiment string `json:"experiment"`
		Result     any    `json:"result"`
	}{experiment, result}
	if err := telemetry.WriteJSONFile(path, doc); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n\n", path)
	return nil
}

func runFig3(jsonDir string) error {
	fmt.Println("=== Fig. 3: FPGA-based LSTM inference time per optimization level ===")
	rows, err := experiments.Fig3()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig3(rows))
	fmt.Println()
	return writeBench(jsonDir, "fig3", rows)
}

func runTableI(jsonDir string, trials int, seed int64, measureGo bool, tracePath string) error {
	fmt.Println("=== Table I: traditional DL hardware comparison ===")
	res, err := experiments.TableI(experiments.TableIConfig{
		Trials: trials, Seed: seed, MeasureGo: measureGo,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTableI(res))
	fmt.Println()
	// Per-item latencies convert to classification throughput; include the
	// FPGA figure so downstream dashboards need no recomputation.
	doc := struct {
		*experiments.TableIResult
		FPGAItemsPerSecond float64 `json:"fpga_items_per_second"`
		// ObservabilityOverheadPercent is a small-iteration self-audit:
		// the host wall-clock premium the telemetry/trace/eventlog/prof
		// stack adds per serve request (full audit: -experiment wallclock).
		ObservabilityOverheadPercent float64                  `json:"observability_overhead_percent"`
		TraceProfile                 *experiments.TraceResult `json:"trace_profile,omitempty"`
	}{TableIResult: res}
	for _, row := range res.Rows {
		if row.Platform == "FPGA (CSD)" && row.MeanUS > 0 {
			doc.FPGAItemsPerSecond = 1e6 / row.MeanUS
		}
	}
	audit, err := experiments.WallClock(experiments.WallClockConfig{
		Iterations: 300, Warmup: 50, Seed: seed,
	})
	if err != nil {
		return err
	}
	doc.ObservabilityOverheadPercent = audit.OverheadPercent
	fmt.Printf("observability overhead (300-request self-audit): %+.1f%% wall-clock per request\n\n",
		audit.OverheadPercent)
	if tracePath != "" {
		tr, err := runTrace(tracePath, seed)
		if err != nil {
			return err
		}
		doc.TraceProfile = tr
	}
	return writeBench(jsonDir, "table1", doc)
}

// runTrace executes the traced serving demo of the table1 configuration,
// writes the Chrome trace to path, and prints the text profile report.
func runTrace(path string, seed int64) (*experiments.TraceResult, error) {
	run, err := experiments.TraceRun(experiments.TraceRunConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := run.Tracer.WriteChrome(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("--- device timeline: %d jobs traced, Chrome trace written to %s ---\n", run.Jobs, path)
	fmt.Println("    (open at https://ui.perfetto.dev or chrome://tracing)")
	fmt.Println()
	fmt.Print(run.Profile.Format())
	fmt.Println()
	return &experiments.TraceResult{Jobs: run.Jobs, Profile: run.Profile}, nil
}

func runTraining(jsonDir string, epochs int, seed int64, full, wantFig4, wantMetrics bool) error {
	cfg := experiments.TrainRunConfig{Epochs: epochs, Seed: seed}
	if full {
		cfg.RansomwareCount = dataset.PaperRansomwareCount
		cfg.BenignCount = dataset.PaperBenignCount
	}
	scale := "1/10-scale"
	if full {
		scale = "paper-scale (29K)"
	}
	fmt.Printf("(training on the %s synthetic corpus, %d epochs...)\n", scale, epochs)
	run, err := experiments.RunTraining(cfg)
	if err != nil {
		return err
	}
	if wantFig4 {
		fmt.Println("=== Fig. 4: convergence of LSTM training on ransomware API call sequences ===")
		fmt.Print(experiments.FormatFig4(run))
		fmt.Println()
	}
	if wantMetrics {
		fmt.Println("=== §IV: ransomware detection metrics ===")
		fmt.Print(experiments.FormatMetrics(run))
		fmt.Println()
	}
	if wantFig4 {
		if err := writeBench(jsonDir, "fig4", run.History); err != nil {
			return err
		}
	}
	if wantMetrics {
		if err := writeBench(jsonDir, "metrics", run.Final); err != nil {
			return err
		}
	}
	return nil
}

func runWallClock(jsonDir string, iterations int, seed int64) error {
	fmt.Println("=== Observability self-audit: instrumented vs bare serve wall-clock ===")
	res, err := experiments.WallClock(experiments.WallClockConfig{
		Iterations: iterations, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatWallClock(res))
	fmt.Println()
	return writeBench(jsonDir, "wallclock", res)
}

// runQuality closes the detection-quality loop: train, replay labeled
// traffic through the scorecard-instrumented detector, and pin the
// headline numbers (plus the full snapshot) in BENCH_quality.json for the
// benchdiff gate.
func runQuality(jsonDir string, epochs int, seed int64, refPath, writeRefPath string) error {
	fmt.Println("=== Detection-quality scorecard: confusion, latency-to-flag, score drift ===")
	fmt.Printf("(training a detector model first, %d epochs on the 1/10-scale corpus...)\n", epochs)
	run, err := experiments.RunTraining(experiments.TrainRunConfig{
		Epochs: epochs, Seed: seed, TargetAccuracy: 0.97,
	})
	if err != nil {
		return err
	}
	var ref *quality.Reference
	if refPath != "" {
		ref, err = quality.LoadReference(refPath)
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				return err
			}
			fmt.Printf("(no pinned reference at %s; drift check off)\n", refPath)
			ref = nil
		}
	}
	res, err := experiments.QualityScorecard(experiments.QualityRunConfig{
		Model: run.Model, Seed: seed, Reference: ref,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatQuality(res))
	fmt.Println()
	if writeRefPath != "" {
		pinned, err := quality.ReferenceFrom("csdbench-quality", res.Snapshot)
		if err != nil {
			return err
		}
		if err := quality.WriteReference(writeRefPath, pinned); err != nil {
			return err
		}
		fmt.Printf("(pinned score distribution to %s)\n\n", writeRefPath)
	}
	q := res.Snapshot
	doc := struct {
		Recall           float64          `json:"recall"`
		FPR              float64          `json:"fpr"`
		Precision        float64          `json:"precision"`
		Accuracy         float64          `json:"accuracy"`
		WindowsToFlagP50 float64          `json:"windows_to_flag_p50"`
		WindowsToFlagP99 float64          `json:"windows_to_flag_p99"`
		BytesAtRiskP50   float64          `json:"bytes_at_risk_p50"`
		BytesAtRiskP99   float64          `json:"bytes_at_risk_p99"`
		DriftPSI         float64          `json:"drift_psi"`
		Drifted          bool             `json:"drifted"`
		Snapshot         quality.Snapshot `json:"snapshot"`
	}{
		Recall: q.Total.Recall, FPR: q.Total.FPR,
		Precision: q.Total.Precision, Accuracy: q.Total.Accuracy,
		WindowsToFlagP50: q.WindowsToFlag.P50, WindowsToFlagP99: q.WindowsToFlag.P99,
		BytesAtRiskP50: q.BytesAtRisk.P50, BytesAtRiskP99: q.BytesAtRisk.P99,
		DriftPSI: q.Drift.PSI, Drifted: q.Drift.Drifted,
		Snapshot: q,
	}
	return writeBench(jsonDir, "quality", doc)
}

func runEnergy(jsonDir string) error {
	fmt.Println("=== Energy per inference item (paper §I/§VII efficiency claims) ===")
	res, err := experiments.Energy()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatEnergy(res))
	fmt.Println()
	return writeBench(jsonDir, "energy", res)
}

func runTableII(jsonDir string, seed int64) error {
	fmt.Println("=== Table II: ransomware dataset overview ===")
	// Generate the extraction corpus at 1/10 scale for window counts.
	ds, err := dataset.Build(dataset.BuildConfig{
		RansomwareCount: dataset.PaperRansomwareCount / 10,
		BenignCount:     dataset.PaperBenignCount / 10,
		Seed:            seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTableII(experiments.TableII(ds), ds))
	fmt.Println()
	return writeBench(jsonDir, "table2", experiments.TableII(ds))
}
