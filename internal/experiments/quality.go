package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/sandbox"
)

// This file closes the detection-quality loop offline: it replays labeled
// ransomware and benign traffic through a freshly deployed detector with
// the quality scorecard attached, producing the recall / FPR /
// windows-to-flag / bytes-at-risk / drift numbers that BENCH_quality.json
// pins and benchdiff gates.

// The replayed population of the detection-quality experiment.
const (
	// qualityTraceLen is the ransomware trace length replayed per variant.
	qualityTraceLen = 2000
	// qualityBenignLen is the benign trace length replayed per app.
	qualityBenignLen = 1500
	// qualityVariants bounds how many variants of each family are
	// replayed; all ten families still appear.
	qualityVariants = 2
	// qualityBenignApps is how many benign application profiles are
	// replayed, the first of sandbox.BenignApps.
	qualityBenignApps = 10
)

// QualityRunConfig controls the detection-quality scorecard experiment.
type QualityRunConfig struct {
	// Model is the trained classifier (train one with RunTraining first).
	Model *lstm.Model
	// Window is the classification window length; 0 defaults to the
	// paper's 100.
	Window int
	// Threshold is the alert probability; 0 defaults to 0.5.
	Threshold float64
	// Seed drives trace generation.
	Seed int64
	// Reference, when non-nil, arms the scorecard's drift detector so the
	// result reports PSI against the pinned distribution.
	Reference *quality.Reference
}

// QualityRun is the outcome of the detection-quality experiment.
type QualityRun struct {
	// Snapshot is the scorecard's full state after the replay.
	Snapshot quality.Snapshot
	// RansomProcesses / BenignProcesses count the replayed profiles.
	RansomProcesses int
	BenignProcesses int
}

// QualityScorecard deploys the model once, then replays every selected
// ransomware variant and benign app as its own process (fresh per-process
// detector state, distinct PID) with ground-truth labels on the context,
// and returns the scorecard's judgment.
func QualityScorecard(cfg QualityRunConfig) (*QualityRun, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("experiments: quality needs a trained model")
	}
	if cfg.Window == 0 {
		cfg.Window = 100
	}

	scorecard, err := quality.New(quality.Config{Reference: cfg.Reference})
	if err != nil {
		return nil, err
	}
	dev, err := csd.New(csd.Config{})
	if err != nil {
		return nil, err
	}
	eng, err := core.Deploy(dev, cfg.Model, core.DeployConfig{SeqLen: cfg.Window})
	if err != nil {
		return nil, err
	}

	// Each profile runs as its own process against a fresh mux, so the
	// block latch (and the windows-to-flag clock) is per-process while the
	// engine deployment is shared.
	pid := 3000
	replayProfile := func(p *sandbox.Profile, length int, seed int64) error {
		mux, err := detect.NewMux(eng, detect.MuxConfig{
			Detector: detect.Config{Threshold: cfg.Threshold, Quality: scorecard},
		})
		if err != nil {
			return err
		}
		trace, err := p.Generate(length, seed)
		if err != nil {
			return err
		}
		ctx := quality.WithLabel(context.Background(), p.Label())
		pid++
		for _, call := range trace {
			ev, err := mux.Observe(ctx, pid, call)
			if err != nil {
				if errors.Is(err, detect.ErrBlocked) {
					return nil
				}
				return err
			}
			if ev != nil && ev.Action == detect.ActionBlock {
				return nil
			}
		}
		return nil
	}

	run := &QualityRun{}
	for _, fam := range sandbox.Families {
		for v := 0; v < min(fam.Variants, qualityVariants); v++ {
			p, err := sandbox.RansomwareProfile(fam.Name, v)
			if err != nil {
				return nil, err
			}
			if err := replayProfile(p, qualityTraceLen, cfg.Seed+int64(pid)); err != nil {
				return nil, fmt.Errorf("experiments: quality %s.v%d: %w", fam.Name, v, err)
			}
			run.RansomProcesses++
		}
	}
	for i := 0; i < qualityBenignApps; i++ {
		p, err := sandbox.BenignProfile(sandbox.BenignApps[i])
		if err != nil {
			return nil, err
		}
		if err := replayProfile(p, qualityBenignLen, cfg.Seed+int64(pid)); err != nil {
			return nil, fmt.Errorf("experiments: quality %s: %w", sandbox.BenignApps[i], err)
		}
		run.BenignProcesses++
	}

	run.Snapshot = scorecard.Snapshot()
	return run, nil
}

// FormatQuality renders the detection-quality scorecard.
func FormatQuality(run *QualityRun) string {
	var b strings.Builder
	q := run.Snapshot
	fmt.Fprintf(&b, "Detection quality (%d ransomware + %d benign processes, %d labeled windows)\n",
		run.RansomProcesses, run.BenignProcesses, q.Labeled)
	fmt.Fprintf(&b, "confusion tp=%d fp=%d tn=%d fn=%d\n",
		q.Total.TP, q.Total.FP, q.Total.TN, q.Total.FN)
	fmt.Fprintf(&b, "rates     recall %.4f  fpr %.4f  precision %.4f  accuracy %.4f  (paper recall %.4f)\n",
		q.Total.Recall, q.Total.FPR, q.Total.Precision, q.Total.Accuracy, PaperDetection.Recall)
	fmt.Fprintf(&b, "latency   windows-to-flag p50 %.0f p99 %.0f  bytes-at-risk p50 %.0f p99 %.0f\n",
		q.WindowsToFlag.P50, q.WindowsToFlag.P99, q.BytesAtRisk.P50, q.BytesAtRisk.P99)
	fmt.Fprintf(&b, "processes %d tracked, %d flagged, %d blocked\n",
		q.Processes.Tracked, q.Processes.Flagged, q.Processes.Blocked)
	if q.Drift.Reference != "" {
		state := "stable"
		if q.Drift.Drifted {
			state = "DRIFTED"
		}
		if q.Drift.LowCount {
			state = "low-count"
		}
		fmt.Fprintf(&b, "drift     psi %.4f vs %s (threshold %.2f)  [%s]\n",
			q.Drift.PSI, q.Drift.Reference, q.Drift.Threshold, state)
	}
	fmt.Fprintf(&b, "%-14s %6s %6s %6s %6s %10s %10s\n", "family", "tp", "fp", "tn", "fn", "recall", "windows")
	for _, f := range q.Families {
		fmt.Fprintf(&b, "%-14s %6d %6d %6d %6d %10.4f %10d\n",
			f.Family, f.TP, f.FP, f.TN, f.FN, f.Recall, f.Windows)
	}
	return b.String()
}
