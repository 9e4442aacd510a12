package detect

import (
	"context"
	"testing"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

func counterValue(t *testing.T, reg *telemetry.Registry, name string, labels ...telemetry.Label) int64 {
	t.Helper()
	snap := reg.Snapshot()
	for _, m := range snap {
		if m.Name != name || len(m.Labels) != len(labels) {
			continue
		}
		match := true
		for i, l := range labels {
			if m.Labels[i] != l {
				match = false
				break
			}
		}
		if match {
			return m.Value
		}
	}
	t.Fatalf("series %s%v not in registry (%d series)", name, labels, len(snap))
	return 0
}

// feed drives calls through the detector until it blocks or the trace ends.
func feed(t *testing.T, d *Detector, trace []int) {
	t.Helper()
	for _, call := range trace {
		if _, err := d.Observe(context.Background(), call); err != nil {
			if err == ErrBlocked {
				return
			}
			t.Fatal(err)
		}
	}
}

func TestDetectorCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := &fakePredictor{window: 4, marker: 7}
	d, err := New(p, Config{Stride: 2, AlertsToBlock: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// 4 benign calls fill the window (verdict 1, benign), then a marker
	// slides in: two strides later it alerts, the confirmation re-check
	// blocks.
	feed(t, d, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})

	if got := counterValue(t, reg, "detect_windows_total"); got != int64(d.Stats().WindowsEvaluated) {
		t.Fatalf("detect_windows_total = %d, stats say %d", got, d.Stats().WindowsEvaluated)
	}
	ransom := counterValue(t, reg, "detect_verdicts_total", telemetry.L("verdict", "ransomware"))
	benign := counterValue(t, reg, "detect_verdicts_total", telemetry.L("verdict", "benign"))
	if ransom+benign != int64(d.Stats().WindowsEvaluated) {
		t.Fatalf("verdicts %d+%d don't sum to windows %d", ransom, benign, d.Stats().WindowsEvaluated)
	}
	if ransom == 0 || benign == 0 {
		t.Fatalf("expected both verdict outcomes, got ransomware=%d benign=%d", ransom, benign)
	}
	if got := counterValue(t, reg, "detect_alerts_total"); got != int64(d.Stats().Alerts) {
		t.Fatalf("detect_alerts_total = %d, stats say %d", got, d.Stats().Alerts)
	}
	if got := counterValue(t, reg, "detect_blocks_total"); got != 1 {
		t.Fatalf("detect_blocks_total = %d, want 1", got)
	}
	if !d.Blocked() {
		t.Fatal("detector should have blocked")
	}
}

func TestDetectorSpans(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(8)
	p := &fakePredictor{window: 3, marker: 99}
	d, err := New(p, Config{Stride: 1, Telemetry: reg, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, []int{1, 2, 3, 4, 5})

	got := spans.Snapshot()
	if int64(len(got)) != d.Stats().WindowsEvaluated {
		t.Fatalf("%d spans for %d windows", len(got), d.Stats().WindowsEvaluated)
	}
	for _, sp := range got {
		if sp.Name != "window" {
			t.Fatalf("span name %q", sp.Name)
		}
		found := false
		for _, ph := range sp.Phases {
			if ph.Name == telemetry.PhaseVerdict {
				found = true
			}
		}
		if !found {
			t.Fatalf("span %v lacks verdict phase", sp)
		}
	}
}

// TestDetectorHonorsCallerSpan: when the caller already carries a span, the
// detector records into it rather than opening (and logging) its own.
func TestDetectorHonorsCallerSpan(t *testing.T) {
	spans := telemetry.NewSpanLog(8)
	p := &fakePredictor{window: 2, marker: 99}
	d, err := New(p, Config{Stride: 1, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	sp := &telemetry.Span{Name: "caller"}
	ctx := telemetry.WithSpan(context.Background(), sp)
	if _, err := d.Observe(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Observe(ctx, 2); err != nil { // completes the window
		t.Fatal(err)
	}
	if n := len(spans.Snapshot()); n != 0 {
		t.Fatalf("detector logged %d spans despite caller-owned span", n)
	}
	if len(sp.Phases) == 0 || sp.Phases[0].Name != telemetry.PhaseVerdict {
		t.Fatalf("caller span not recorded into: %v", sp.Phases)
	}
}

func TestMuxEvictionTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := &fakePredictor{window: 4, marker: 7}
	m, err := NewMux(p, MuxConfig{Detector: Config{Stride: 2, Telemetry: reg}})
	if err != nil {
		t.Fatal(err)
	}
	// One PID past the cap forces one eviction.
	for pid := 100; pid <= 100+MaxProcesses; pid++ {
		if _, err := m.Observe(context.Background(), pid, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(t, reg, "mux_evictions_total"); got != 1 {
		t.Fatalf("mux_evictions_total = %d, want 1", got)
	}
	if got := counterValue(t, reg, "mux_processes"); got != MaxProcesses {
		t.Fatalf("mux_processes = %d, want %d", got, MaxProcesses)
	}
	if m.Processes() != MaxProcesses {
		t.Fatalf("Processes() = %d", m.Processes())
	}
}
