package load

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// qualityStub is a perfect oracle Target: it reads the ground-truth label
// off the request context and answers 0.9 for ransomware, 0.1 for benign,
// while counting how many labeled requests it served per class. That makes
// the expected confusion matrix exactly computable from its own counters.
type qualityStub struct {
	seqLen    int
	truth     atomic.Int64
	benign    atomic.Int64
	unlabeled atomic.Int64
}

func (s *qualityStub) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	l, ok := quality.LabelFrom(ctx)
	switch {
	case !ok:
		s.unlabeled.Add(1)
	case l.Truth:
		s.truth.Add(1)
		return kernels.Result{Probability: 0.9}, infer.Timing{}, nil
	default:
		s.benign.Add(1)
	}
	return kernels.Result{Probability: 0.1}, infer.Timing{}, nil
}

func (s *qualityStub) SeqLen() int { return s.seqLen }

// TestRunQualityExactConfusion pins the scorecard bookkeeping against the
// generator's own ground truth: with no warmup and no chaos, every measured
// success is scored, and a perfect-oracle target must produce a confusion
// matrix of exactly (TP = ransomware requests, TN = benign requests, 0
// misclassifications).
func TestRunQualityExactConfusion(t *testing.T) {
	tgt := &qualityStub{seqLen: 8}
	card, err := quality.New(quality.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Target:         tgt,
		Rate:           2000,
		Duration:       200 * time.Millisecond,
		Seed:           9,
		PIDs:           20,
		RansomFraction: 0.25, // 5 of 20 PIDs are ground-truth ransomware
		Quality:        card,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality == nil {
		t.Fatal("no quality snapshot in result despite a configured scorecard")
	}
	q := res.Quality
	if tgt.unlabeled.Load() != 0 {
		t.Errorf("%d requests reached the target without a ground-truth label", tgt.unlabeled.Load())
	}
	if q.Unlabeled != 0 {
		t.Errorf("scorecard saw %d unlabeled windows, want 0", q.Unlabeled)
	}
	if q.Windows != res.Succeeded {
		t.Errorf("scored windows %d != measured successes %d (Warmup=0, so every success is scored)", q.Windows, res.Succeeded)
	}
	truthSeen, benignSeen := tgt.truth.Load(), tgt.benign.Load()
	if truthSeen == 0 || benignSeen == 0 {
		t.Fatalf("degenerate run: truth=%d benign=%d requests, want both classes exercised", truthSeen, benignSeen)
	}
	if int64(q.Total.TP) != truthSeen || int64(q.Total.TN) != benignSeen || q.Total.FP != 0 || q.Total.FN != 0 {
		t.Errorf("confusion tp=%d fp=%d tn=%d fn=%d, want exactly tp=%d tn=%d fp=0 fn=0",
			q.Total.TP, q.Total.FP, q.Total.TN, q.Total.FN, truthSeen, benignSeen)
	}
	if q.Total.Recall != 1 || q.Total.FPR != 0 {
		t.Errorf("perfect oracle scored recall %v fpr %v, want 1 / 0", q.Total.Recall, q.Total.FPR)
	}
	// Families assigned round-robin from the sandbox catalog: with 5
	// ransomware PIDs the first five families each carry traffic.
	var ransomFamilies int
	for _, f := range q.Families {
		if f.Family == "benign" {
			continue
		}
		ransomFamilies++
		if f.TP == 0 || f.FN != 0 {
			t.Errorf("family %s: tp=%d fn=%d, want flagged traffic and no misses", f.Family, f.TP, f.FN)
		}
	}
	if ransomFamilies != 5 {
		t.Errorf("%d ransomware families in breakdown, want 5 (round-robin over 5 labeled PIDs)", ransomFamilies)
	}
	// Every flagged process crossed the threshold on its first window.
	if q.WindowsToFlag.Count == 0 || q.WindowsToFlag.P50 != 1 {
		t.Errorf("windows-to-flag count=%d p50=%v, want instant (1-window) detection", q.WindowsToFlag.Count, q.WindowsToFlag.P50)
	}
}

// TestRunQualityDigestNeutral pins that quality labeling is RNG-neutral:
// the same seed produces the identical arrival schedule whether or not a
// scorecard is attached, because labels are a pure function of the PID.
func TestRunQualityDigestNeutral(t *testing.T) {
	base := Config{
		Target: &qualityStub{seqLen: 8}, Rate: 1000,
		Duration: 100 * time.Millisecond, Seed: 21, PIDs: 16,
	}
	plain, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	card, err := quality.New(quality.Config{})
	if err != nil {
		t.Fatal(err)
	}
	withQ := base
	withQ.Target = &qualityStub{seqLen: 8}
	withQ.Quality = card
	withQ.RansomFraction = 0.5
	withQ.QualityThreshold = 0.7
	labeled, err := Run(context.Background(), withQ)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ScheduleDigest != labeled.ScheduleDigest {
		t.Errorf("quality settings perturbed the schedule: %s vs %s", plain.ScheduleDigest, labeled.ScheduleDigest)
	}
}

// TestRunQualityInjectMiss pins the SLO-drill fault injection: with every
// verdict forced un-flagged, ground-truth ransomware is always missed and
// the scorecard shows zero recall.
func TestRunQualityInjectMiss(t *testing.T) {
	tgt := &qualityStub{seqLen: 8}
	card, err := quality.New(quality.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Target:            tgt,
		Rate:              1000,
		Duration:          150 * time.Millisecond,
		Seed:              4,
		PIDs:              10,
		RansomFraction:    0.3,
		Quality:           card,
		QualityInjectMiss: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Quality
	if q == nil {
		t.Fatal("no quality snapshot")
	}
	if q.Total.TP != 0 || q.Total.FP != 0 {
		t.Errorf("inject-miss still flagged windows: tp=%d fp=%d", q.Total.TP, q.Total.FP)
	}
	if int64(q.Total.FN) != tgt.truth.Load() {
		t.Errorf("fn=%d, want every ransomware request missed (%d)", q.Total.FN, tgt.truth.Load())
	}
	if q.Total.FN > 0 && q.Total.Recall != 0 {
		t.Errorf("recall %v with all detections suppressed, want 0", q.Total.Recall)
	}
}

// TestRunQualityReportRenders pins the "detection quality" section of the
// text report and the quality block of the JSON report.
func TestRunQualityReportRenders(t *testing.T) {
	card, err := quality.New(quality.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Target:         &qualityStub{seqLen: 4},
		Rate:           800,
		Duration:       100 * time.Millisecond,
		Seed:           6,
		PIDs:           12,
		RansomFraction: 0.25,
		Quality:        card,
	})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"detection quality", "confusion tp=", "recall"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	path := filepath.Join(t.TempDir(), "slo-report.json")
	if err := telemetry.WriteJSONFile(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"quality"`) {
		t.Error("JSON report has no quality block")
	}
}
