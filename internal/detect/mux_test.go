package detect

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

func TestNewMuxValidation(t *testing.T) {
	p := &fakePredictor{window: 4, marker: 7}
	if _, err := NewMux(nil, MuxConfig{}); err == nil {
		t.Error("nil predictor: expected error")
	}
	if _, err := NewMux(p, MuxConfig{Detector: Config{Threshold: 2}}); err == nil {
		t.Error("bad detector config: expected error")
	}
}

func TestMuxIsolatesProcesses(t *testing.T) {
	p := &fakePredictor{window: 4, marker: 7}
	m, err := NewMux(p, MuxConfig{Detector: Config{Stride: 1, AlertsToBlock: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: pid 1 streams marker calls, pid 2 streams benign calls.
	// Without per-process windows, pid 2's calls would dilute pid 1's
	// window below detectability... here pid 1 must fire on its own.
	var blockedEv *ProcessEvent
	for i := 0; i < 8 && blockedEv == nil; i++ {
		if ev, err := m.Observe(context.Background(), 2, 1); err != nil {
			t.Fatal(err)
		} else if ev != nil && ev.Action == ActionBlock {
			t.Fatalf("benign process blocked: %+v", ev)
		}
		ev, err := m.Observe(context.Background(), 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil && ev.Action == ActionBlock {
			blockedEv = ev
		}
	}
	if blockedEv == nil {
		t.Fatal("infected process never blocked")
	}
	if blockedEv.PID != 1 {
		t.Fatalf("blocked pid = %d, want 1", blockedEv.PID)
	}
	blocked, pid := m.Blocked()
	if !blocked || pid != 1 {
		t.Fatalf("Blocked() = %v, %d", blocked, pid)
	}
	// The mux latches globally (device-level quarantine).
	if _, err := m.Observe(context.Background(), 2, 1); !errors.Is(err, ErrBlocked) {
		t.Fatalf("post-block observe error = %v", err)
	}
}

func TestMuxEviction(t *testing.T) {
	p := &fakePredictor{window: 4, marker: 7}
	m, err := NewMux(p, MuxConfig{Detector: Config{Stride: 1, Threshold: 0.99}})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 1; pid <= MaxProcesses+2; pid++ {
		if _, err := m.Observe(context.Background(), pid, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Processes(); got != MaxProcesses {
		t.Fatalf("tracked processes = %d, want %d (evicted down)", got, MaxProcesses)
	}
	// The longest-idle (pid 1, 2) must be gone; recent pids remain.
	stats := m.ProcessStats()
	for pid := 1; pid <= MaxProcesses+2; pid++ {
		if _, ok := stats[pid]; ok != (pid > 2) {
			t.Fatalf("pid %d tracked = %v after two evictions", pid, ok)
		}
	}
}

func TestMuxStats(t *testing.T) {
	p := &fakePredictor{window: 2, marker: 7}
	m, err := NewMux(p, MuxConfig{Detector: Config{Stride: 1, Threshold: 0.99}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Observe(context.Background(), 10, 1); err != nil {
			t.Fatal(err)
		}
	}
	stats := m.ProcessStats()
	if s, ok := stats[10]; !ok || s.CallsObserved != 4 {
		t.Fatalf("stats[10] = %+v", stats[10])
	}
}

func TestMuxEvictionUnderChurn(t *testing.T) {
	p := &fakePredictor{window: 4, marker: 7}
	m, err := NewMux(p, MuxConfig{Detector: Config{Stride: 1, Threshold: 0.99}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A hot set one short of the cap keeps streaming while a churn of
	// one-shot PIDs arrives. The hot set must survive every eviction round
	// with its accumulated state intact; the one-shot strangers are the
	// idlest and must be the ones evicted.
	var hot []int
	for pid := 100; pid < 100+MaxProcesses-1; pid++ {
		hot = append(hot, pid)
	}
	const rounds = 20
	for r := 0; r < rounds; r++ {
		for _, pid := range hot {
			if _, err := m.Observe(ctx, pid, 1); err != nil {
				t.Fatal(err)
			}
		}
		// A fresh stranger each round forces an eviction once full.
		if _, err := m.Observe(ctx, 1000+r, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Processes(); got != MaxProcesses {
		t.Fatalf("tracked processes = %d, want %d (bounded)", got, MaxProcesses)
	}
	stats := m.ProcessStats()
	for _, pid := range hot {
		s, ok := stats[pid]
		if !ok {
			t.Fatalf("hot pid %d evicted; stranger should have been idlest", pid)
		}
		if s.CallsObserved != rounds {
			t.Fatalf("hot pid %d calls = %d, want %d (state lost across churn)",
				pid, s.CallsObserved, rounds)
		}
	}
	// Only the newest stranger can still be resident.
	for r := 0; r < rounds-1; r++ {
		if _, ok := stats[1000+r]; ok {
			t.Fatalf("stale stranger pid %d survived churn", 1000+r)
		}
	}
	if _, ok := stats[1000+rounds-1]; !ok {
		t.Fatal("newest stranger evicted despite being most recent")
	}
}

// TestMuxEvictionVictimSequence replays a seeded churn schedule over 160
// PIDs against the MaxProcesses cap and pins the exact order of
// eviction victims: each must be the least recently seen process, as an
// independent LRU model says, OnEvict must fire once per eviction, and the
// whole sequence must hash to the pinned value.
func TestMuxEvictionVictimSequence(t *testing.T) {
	reg := telemetry.NewRegistry()
	var victims []int
	m, err := NewMux(&fakePredictor{window: 4, marker: 7}, MuxConfig{
		Detector: Config{Stride: 1, Threshold: 0.99, Telemetry: reg},
		OnEvict:  func(pid int) { victims = append(victims, pid) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var lru, want []int // lru: resident PIDs, least recently seen first
	x := uint32(1)
	for i := 0; i < 3000; i++ {
		x = x*1664525 + 1013904223
		pid := 1 + int(x>>8)%160
		if _, err := m.Observe(context.Background(), pid, 1); err != nil {
			t.Fatal(err)
		}
		if j := slices.Index(lru, pid); j >= 0 {
			lru = slices.Delete(lru, j, j+1)
		} else if len(lru) == MaxProcesses {
			want = append(want, lru[0])
			lru = lru[1:]
		}
		lru = append(lru, pid)
	}
	if !slices.Equal(victims, want) {
		t.Fatalf("eviction victims diverge from the LRU model:\n got %v\nwant %v", victims, want)
	}
	if got := counterValue(t, reg, "mux_evictions_total"); got != int64(len(victims)) {
		t.Fatalf("mux_evictions_total = %d, OnEvict calls = %d", got, len(victims))
	}
	h := fnv.New64a()
	for _, pid := range victims {
		fmt.Fprintf(h, "%d,", pid)
	}
	if n, sum := len(victims), h.Sum64(); n != 1713 || sum != 0xc70c43cb8157f40f {
		t.Fatalf("victim sequence: %d evictions, fnv64a %#x; want 1713, 0xc70c43cb8157f40f", n, sum)
	}
}
