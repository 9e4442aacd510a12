package prof

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// TestContentionStress hammers the observability stack — telemetry registry,
// tracer, and eventlog ring — from 64 goroutines with mutex profiling at
// fraction 1, then asserts the profiler (a) surfaces the contended sites with
// a deterministic ordering and (b) stays within a fixed cost budget while
// doing so. Run under -race this also exercises every profiler entry point
// concurrently with the workload.
func TestContentionStress(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := trace.New()
	events := eventlog.New(eventlog.Config{})
	defer events.Close()

	p, err := New(Config{
		SampleEvery:   -1, // sampled explicitly below
		MutexFraction: 1,  // sample every contention event
		BlockRateNS:   1,
		Telemetry:     reg,
		Events:        events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const callers = 64
	const iters = 500
	ctx := context.Background()
	hammer := func() {
		c := reg.Counter("stress_ops_total", "stress")
		h := reg.Histogram("stress_latency_seconds", "stress", telemetry.Buckets{})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					c.Inc()
					h.Observe(int64(i))
					tr.Emit(trace.Event{
						Track: trace.Track{Group: "stress", Name: "t0"},
						Name:  "op", Cat: trace.CatQueue,
						Start: time.Duration(i), Dur: 1})
					if i%16 == 0 {
						events.Info(ctx, "load", "load.tick", eventlog.F("i", i))
					}
					// Concurrent profiler reads must be race-free too.
					if g == 0 && i%100 == 0 {
						_ = p.Snapshot()
					}
				}
			}(g)
		}
		wg.Wait()
	}

	// The mutex profile is sampled, and a round can surface only
	// runtime-internal lock contention; retry a few rounds until a site is
	// attributed to this module before declaring the extraction broken.
	var s Sample
	moduleSite := func() bool {
		for _, sc := range s.TopMutex {
			if strings.Contains(sc.Site, "csdinf/internal") {
				return true
			}
		}
		return false
	}
	for round := 0; round < 10; round++ {
		hammer()
		s = p.Sample()
		if moduleSite() {
			break
		}
	}
	if len(s.TopMutex) == 0 {
		t.Fatal("no contended mutex sites after 64-caller hammer at fraction 1")
	}
	if len(s.TopMutex) > 8 {
		t.Fatalf("top-N not enforced: %d sites", len(s.TopMutex))
	}

	// Ordering is deterministic: cycles descending, ties by site ascending.
	for i := 1; i < len(s.TopMutex); i++ {
		a, b := s.TopMutex[i-1], s.TopMutex[i]
		if a.Cycles < b.Cycles || (a.Cycles == b.Cycles && a.Site >= b.Site) {
			t.Fatalf("site order violated at %d: %+v before %+v", i, a, b)
		}
	}
	// The blame labels must escape the sync machinery and land on this
	// module's code, not on sync.(*Mutex).Unlock. Sites still labeled
	// "runtime." are allowed: those are wholly-runtime-internal stacks
	// (e.g. the runtime._LostContendedRuntimeLock pseudo-node for
	// runtime-lock contention sampled without a stack) with no caller
	// frame to resolve to — a broken resolver would show up as "sync."
	// sites instead.
	inModule := false
	for _, sc := range s.TopMutex {
		if strings.HasPrefix(sc.Site, "sync.") {
			t.Fatalf("site %q not resolved past the lock machinery", sc.Site)
		}
		if strings.Contains(sc.Site, "csdinf/internal") {
			inModule = true
		}
	}
	if !inModule {
		t.Fatalf("no contended site attributed to this module: %+v", s.TopMutex)
	}

	// Cost budget: a full sample (MemStats + both contention profiles) must
	// stay cheap even right after the hammer. The bound is deliberately
	// loose — it guards against quadratic blowups, not scheduler jitter —
	// and still holds under -race.
	const sampleBudget = 500 * time.Millisecond
	if cost := time.Duration(s.CostNS); cost > sampleBudget {
		t.Fatalf("sample cost %v exceeds budget %v", cost, sampleBudget)
	}

	// Stage-timer overhead budget: Begin/End is two clock reads; amortized it
	// must stay well under a microsecond-scale bound per pair.
	b := &telemetry.Span{}
	p.Open(b)
	const pairs = 10_000
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		b.Begin(telemetry.StageObserve).End()
	}
	perPair := time.Since(t0) / pairs
	if perPair > 20*time.Microsecond {
		t.Fatalf("Begin/End costs %v per pair", perPair)
	}
}
