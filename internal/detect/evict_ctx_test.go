package detect

import (
	"testing"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// TestEvictionEventKeepsCallerJob pins the ctx threading through
// evictIdlest: the process.evict event must carry the trace job ID of the
// record riding the API call that forced the eviction, not an unattributed background
// context.
func TestEvictionEventKeepsCallerJob(t *testing.T) {
	p := &fakePredictor{window: 4, marker: 7}
	log := eventlog.New(eventlog.Config{MinLevel: eventlog.LevelDebug})
	m, err := NewMux(p, MuxConfig{
		MaxProcesses: 2,
		Detector:     Config{Stride: 1, Events: log},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := telemetry.WithSpan(t.Context(), &telemetry.Span{ID: 4242})
	for pid := 1; pid <= 3; pid++ {
		if _, err := m.Observe(ctx, pid, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.Processes() != 2 {
		t.Fatalf("tracked processes = %d, want cap of 2", m.Processes())
	}

	var evict *eventlog.Event
	for _, ev := range log.Recent() {
		if ev.Name == "process.evict" {
			ev := ev
			evict = &ev
		}
	}
	if evict == nil {
		t.Fatal("no process.evict event emitted")
	}
	if evict.PID != 1 {
		t.Errorf("evicted pid = %d, want the idlest (1)", evict.PID)
	}
	if evict.Job != 4242 {
		t.Errorf("evict event job = %d, want the observing call's 4242", evict.Job)
	}
}
