package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
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

// TestSpanJSONGolden pins the wire bytes of the four shapes a span row
// takes on /spans.json and in flight dumps: unprofiled; profiled with
// allocation counts; profiled without them; and profiled before any stage
// ran, where both stage objects are empty and omitted. Rewrite with
// -update.
func TestSpanJSONGolden(t *testing.T) {
	admitted := time.Date(2024, 6, 24, 12, 0, 0, 0, time.UTC)
	phased := func(name string) Span {
		s := Span{Name: name, ID: 42, Device: "csd-001"}
		s.Record(PhaseQueue, 1500*time.Nanosecond)
		s.Record(PhaseTransfer, 90*time.Microsecond)
		s.Record(PhaseCompute, 88*time.Microsecond)
		s.Record(PhaseVerdict, 120*time.Nanosecond)
		return s
	}

	unprofiled := phased("window<&>")

	withAllocs := phased("window")
	withAllocs.Profile(admitted, true)
	for st := Stage(0); st < NumStages; st++ {
		withAllocs.Add(st, time.Duration(1000*(int(st)+1)))
		withAllocs.allocs[st] = int64(st)
	}
	withAllocs.wall[StageVerdict] = 0 // allocations but no wall time: still listed
	withAllocs.wall[StageObserve], withAllocs.allocs[StageObserve] = 0, 0

	withoutAllocs := phased("stored-scan")
	withoutAllocs.Profile(admitted, false)
	withoutAllocs.Add(StageTransfer, 7*time.Microsecond)
	withoutAllocs.Add(StageQueue, 2*time.Microsecond)
	withoutAllocs.Add(StageEncode, -3) // a clock step back is recorded as is

	noStage := Span{Name: "window"}
	noStage.Profile(admitted, true)

	var buf bytes.Buffer
	for _, s := range []Span{unprofiled, withAllocs, withoutAllocs, noStage} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	path := filepath.Join("testdata", "span.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span JSON mismatch\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
