package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanRecordAndString(t *testing.T) {
	s := &Span{Name: "window"}
	s.Record(PhaseQueue, 2*time.Microsecond)
	s.Record(PhaseTransfer, 40*time.Microsecond)
	s.Record(PhaseCompute, 200*time.Microsecond)
	s.Record(PhaseVerdict, 100*time.Nanosecond)
	if got := s.Total(); got != 242*time.Microsecond+100*time.Nanosecond {
		t.Fatalf("total = %v", got)
	}
	out := s.String()
	for _, want := range []string{"window:", "queue=2µs", "transfer=40µs", "compute=200µs", "verdict=100ns", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q: %s", want, out)
		}
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	if SpanFrom(context.Background()) != nil {
		t.Fatal("empty context carried a span")
	}
	s := &Span{Name: "x"}
	ctx := WithSpan(context.Background(), s)
	if got := SpanFrom(ctx); got != s {
		t.Fatalf("SpanFrom = %p, want %p", got, s)
	}
}

func TestSpanLogRing(t *testing.T) {
	l := NewSpanLog(3)
	for i := 0; i < 5; i++ {
		l.Add(Span{Name: string(rune('a' + i))})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d spans, want 3", len(got))
	}
	// Oldest-first: c, d, e survive after a and b were evicted.
	for i, want := range []string{"c", "d", "e"} {
		if got[i].Name != want {
			t.Errorf("span %d = %q, want %q", i, got[i].Name, want)
		}
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
}

func TestSpanLogNilSafe(t *testing.T) {
	var l *SpanLog
	l.Add(Span{Name: "x"}) // must not panic
	if l.Snapshot() != nil || l.Total() != 0 {
		t.Fatal("nil span log not inert")
	}
}

// TestSpanPhasesInlineAndLogCopiesOwnThem: the usual four phases need no
// allocation, and a logged copy keeps its phases when the original record
// is written again.
func TestSpanPhasesInlineAndLogCopiesOwnThem(t *testing.T) {
	s := &Span{Name: "window"}
	if n := testing.AllocsPerRun(100, func() {
		s.Phases = nil
		for _, p := range []string{PhaseQueue, PhaseTransfer, PhaseCompute, PhaseVerdict} {
			s.Record(p, time.Microsecond)
		}
	}); n != 0 {
		t.Fatalf("recording four phases allocated %v times", n)
	}
	l := NewSpanLog(2)
	l.Add(*s)
	s.Phases = s.Phases[:0]
	s.Record(PhaseQueue, time.Hour)
	got := l.Snapshot()
	if len(got) != 1 || len(got[0].Phases) != 4 || got[0].Phases[0].Duration != time.Microsecond {
		t.Fatalf("logged span changed with the original: %+v", got)
	}
	// A span without phases still renders "phases": null in /spans.json.
	l.Add(Span{Name: "none"})
	if got := l.Snapshot(); got[1].Phases != nil {
		t.Fatal("a span without phases gained an empty phase list")
	}
}

// TestCountAllocsStageTimerAllocatesNothing: counting a stage's
// allocations must not itself allocate, or the self-audit's allocs/op
// would price the counter instead of the request path.
func TestCountAllocsStageTimerAllocatesNothing(t *testing.T) {
	s := &Span{}
	s.Profile(time.Now(), true)
	if n := testing.AllocsPerRun(100, func() {
		s.Begin(StageObserve).End()
	}); n != 0 {
		t.Fatalf("Begin/End on an alloc-counting span allocated %v times", n)
	}
}

// TestSpanJSONCarriesBothClocks: an unprofiled record marshals exactly as
// it always did; a profiled one adds its admission time and host stage
// costs beside the simulated phases.
func TestSpanJSONCarriesBothClocks(t *testing.T) {
	s := Span{Name: "window", ID: 7, Device: "1"}
	s.Record(PhaseCompute, 200*time.Microsecond)
	check := func(want string) {
		t.Helper()
		if got, err := json.Marshal(s); err != nil || string(got) != want {
			t.Fatalf("span JSON = %s, %v\nwant %s", got, err, want)
		}
	}
	const row = `{"name":"window","id":7,"device":"1","phases":[{"name":"compute","duration_ns":200000}]`
	check(row + `}`)
	s.Profile(time.Date(2024, 6, 24, 12, 0, 0, 0, time.UTC), true)
	s.Add(StageCompute, 3*time.Microsecond)
	s.Add(StageQueue, time.Microsecond)
	s.allocs[StageCompute] = 2
	check(row + `,"admitted":"2024-06-24T12:00:00Z","stage_ns":{"compute":3000,"queue":1000},"stage_allocs":{"compute":2,"queue":0}}`)
}
