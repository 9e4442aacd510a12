package detect

import (
	"context"
	"testing"

	"github.com/kfrida1/csdinf/internal/quality"
)

// TestQualityLabelStamping pins the detect -> quality handoff: a label
// riding the request context lands on the WindowSample truth fields, and
// every classified window reaches the scorecard as a Verdict whose
// Flagged/Blocked mirror the escalation ladder (alert and block both count
// as flagged; only a block latches Blocked).
func TestQualityLabelStamping(t *testing.T) {
	card, err := quality.New(quality.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var samples []WindowSample
	p := &fakePredictor{window: 4, marker: 7}
	m, err := NewMux(p, MuxConfig{Detector: Config{
		Stride:        4,
		AlertsToBlock: 2,
		Quality:       card,
		OnWindow:      func(s WindowSample) { samples = append(samples, s) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := quality.WithLabel(context.Background(), quality.Label{Truth: true, Family: "LockBit"})

	// Window 1: benign calls — scored, not flagged.
	for i := 0; i < 4; i++ {
		if _, err := m.Observe(ctx, 42, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Windows 2 and 3: the marker drives alert then block.
	for i := 0; i < 8; i++ {
		if _, err := m.Observe(ctx, 42, 7); err != nil {
			t.Fatal(err)
		}
	}

	if len(samples) != 3 {
		t.Fatalf("%d window samples, want 3", len(samples))
	}
	for i, s := range samples {
		if s.Truth != "ransomware" || s.Family != "lockbit" {
			t.Errorf("sample %d truth=%q family=%q, want ransomware/lockbit (sanitized)", i, s.Truth, s.Family)
		}
		if s.PID != 42 {
			t.Errorf("sample %d pid=%d, want 42", i, s.PID)
		}
	}
	if samples[0].Action != ActionNone || samples[1].Action != ActionAlert || samples[2].Action != ActionBlock {
		t.Fatalf("escalation = %v %v %v, want none/alert/block", samples[0].Action, samples[1].Action, samples[2].Action)
	}

	q := card.Snapshot()
	// Verdict mapping: the benign-looking window is a miss (FN), the alert
	// and block windows are hits (TP).
	if q.Total.TP != 2 || q.Total.FN != 1 {
		t.Errorf("confusion %+v, want tp=2 fn=1", q.Total)
	}
	if q.Processes.Flagged != 1 || q.Processes.Blocked != 1 {
		t.Errorf("processes %+v, want the one PID flagged and blocked", q.Processes)
	}
	// Flagged on window 2, blocked on window 3.
	if q.WindowsToFlag.P50 != 2 {
		t.Errorf("windows-to-flag p50 %v, want 2", q.WindowsToFlag.P50)
	}
	if want := float64(3 * quality.BytesPerWindow); q.BytesAtRisk.P50 != want {
		t.Errorf("bytes-at-risk p50 %v, want %v (3 windows)", q.BytesAtRisk.P50, want)
	}
}

// TestQualityUnlabeledWindows pins that windows observed without a
// ground-truth label still count (as unlabeled) and leave the truth
// fields empty.
func TestQualityUnlabeledWindows(t *testing.T) {
	card, err := quality.New(quality.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sample WindowSample
	p := &fakePredictor{window: 4, marker: 99}
	d, err := New(p, Config{
		Stride:   4,
		Quality:  card,
		OnWindow: func(s WindowSample) { sample = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.Observe(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	if sample.Truth != "" || sample.Family != "" {
		t.Errorf("unlabeled sample truth=%q family=%q, want empty", sample.Truth, sample.Family)
	}
	q := card.Snapshot()
	if q.Windows != 1 || q.Unlabeled != 1 || q.Labeled != 0 {
		t.Errorf("scorecard windows=%d unlabeled=%d labeled=%d, want 1/1/0", q.Windows, q.Unlabeled, q.Labeled)
	}
}
