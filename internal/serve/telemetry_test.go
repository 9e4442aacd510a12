package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

func findSeries(t *testing.T, reg *telemetry.Registry, name, device string) *telemetry.Metric {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		for _, l := range m.Labels {
			if l.Key == "device" && l.Value == device {
				mc := m
				return &mc
			}
		}
	}
	t.Fatalf("series %s{device=%q} not in registry", name, device)
	return nil
}

// TestQueueWaitRecorded holds a worker busy so a second request measurably
// queues, then checks the wait lands in the histogram, DeviceStats, and the
// request's span.
func TestQueueWaitRecorded(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(8)
	f := &fakeInf{seqLen: 8, cost: time.Millisecond,
		started: make(chan struct{}, 4), release: make(chan struct{}, 4)}
	s, err := New([]infer.Inferencer{f}, Config{Telemetry: reg, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
				t.Error(err)
			}
		}()
	}
	<-f.started // first request is on the device
	// Second request queues behind it; give it a measurable wait.
	waitQueued(t, s, 2)
	time.Sleep(5 * time.Millisecond)
	f.release <- struct{}{}
	<-f.started
	f.release <- struct{}{}
	wg.Wait()

	st := s.Stats()
	if st.QueueWaits != 2 {
		t.Fatalf("QueueWaits = %d, want 2", st.QueueWaits)
	}
	if st.QueueWaitMean <= 0 {
		t.Fatalf("QueueWaitMean = %v", st.QueueWaitMean)
	}
	h := findSeries(t, reg, "serve_queue_wait_seconds", "csd-000").Histogram
	if h == nil || h.Count != 2 {
		t.Fatalf("histogram snapshot %+v", h)
	}
	// The queued request waited through the 5ms sleep; the wall-time
	// histogram must reflect at least that.
	if h.Max < int64(5*time.Millisecond) {
		t.Fatalf("max queue wait %v, expected >= 5ms", time.Duration(h.Max))
	}

	got := spans.Snapshot()
	if len(got) != 2 {
		t.Fatalf("%d spans, want 2", len(got))
	}
	for _, sp := range got {
		if sp.Name != "predict" {
			t.Fatalf("span name %q", sp.Name)
		}
		if len(sp.Phases) == 0 || sp.Phases[0].Name != telemetry.PhaseQueue {
			t.Fatalf("span lacks leading queue phase: %v", sp.Phases)
		}
	}
}

func TestServeCountersExposed(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := &fakeInf{seqLen: 8, cost: time.Millisecond}
	s, err := New([]infer.Inferencer{f}, Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
			t.Fatal(err)
		}
	}
	if jobs := findSeries(t, reg, "serve_jobs_total", "csd-000").Value; jobs != 6 {
		t.Fatalf("serve_jobs_total = %d, want 6", jobs)
	}

	// The full per-device set must render in the exposition.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, name := range []string{
		"serve_jobs_total", "serve_dispatches_total", "serve_errors_total",
		"serve_canceled_total", "serve_queue_full_total", "device_pending_requests",
		"device_busy_nanoseconds_total", "device_state", "serve_queue_wait_seconds_bucket",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

func TestQueueFullAndCanceledCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 1), release: make(chan struct{}, 1)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Predict(context.Background(), testSeq())
	}()
	<-f.started // request holds the device
	// Fill the queue with a request that will be canceled before dispatch.
	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := s.Predict(ctx, testSeq()); !errors.Is(err, context.Canceled) {
			t.Errorf("canceled request: %v", err)
		}
	}()
	waitQueued(t, s, 2)
	// Queue (depth 1) is full: the next submit sheds.
	if _, _, err := s.Predict(context.Background(), testSeq()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	cancel()
	f.release <- struct{}{}
	wg.Wait()
	s.Close()

	if v := findSeries(t, reg, "serve_queue_full_total", "csd-000").Value; v != 1 {
		t.Fatalf("serve_queue_full_total = %d, want 1", v)
	}
	if v := findSeries(t, reg, "serve_canceled_total", "csd-000").Value; v != 1 {
		t.Fatalf("serve_canceled_total = %d, want 1", v)
	}
	if v := findSeries(t, reg, "device_pending_requests", "csd-000").Value; v != 0 {
		t.Fatalf("device_pending_requests = %d after drain, want 0", v)
	}
}

// TestCallerSpanThreadsThroughServer: a span in the submitting context is
// recorded into (queue phase) but not logged by the server.
func TestCallerSpanThreadsThroughServer(t *testing.T) {
	spans := telemetry.NewSpanLog(4)
	f := &fakeInf{seqLen: 8}
	s, err := New([]infer.Inferencer{f}, Config{Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sp := &telemetry.Span{Name: "caller"}
	ctx := telemetry.WithSpan(context.Background(), sp)
	if _, _, err := s.Predict(ctx, testSeq()); err != nil {
		t.Fatal(err)
	}
	if len(sp.Phases) == 0 || sp.Phases[0].Name != telemetry.PhaseQueue {
		t.Fatalf("caller span missing queue phase: %v", sp.Phases)
	}
	if n := len(spans.Snapshot()); n != 0 {
		t.Fatalf("server logged %d caller-owned spans", n)
	}
}
