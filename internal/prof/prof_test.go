package prof

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// newManual builds a profiler with no background goroutine and no global
// profile-rate changes, suitable for deterministic unit tests.
func newManual(t *testing.T, cfg Config) *Profiler {
	t.Helper()
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = -1
	}
	if cfg.MutexFraction == 0 {
		cfg.MutexFraction = -1
	}
	if cfg.BlockRateNS == 0 {
		cfg.BlockRateNS = -1
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	if s := p.Sample(); s.Goroutines != 0 {
		t.Fatalf("nil Sample = %+v", s)
	}
	rec := &telemetry.Span{ID: 7}
	p.Open(rec)
	p.Record(rec)
	p.Record(nil)
	if path, err := p.WriteFlight(t.TempDir(), "test", 0); err != nil || path != "" {
		t.Fatalf("nil WriteFlight = %q, %v", path, err)
	}
	// A record no profiler opened ignores stage costs, as does a nil one.
	var nilRec *telemetry.Span
	for _, b := range []*telemetry.Span{rec, nilRec} {
		b.Add(telemetry.StageQueue, time.Second)
		b.Begin(telemetry.StageCompute).End()
		if b.Wall(telemetry.StageQueue) != 0 || b.Wall(telemetry.StageCompute) != 0 {
			t.Fatal("unprofiled record recorded stage costs")
		}
	}
	// Nil handler still serves a well-formed disabled document.
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/prof.json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("nil handler JSON: %v", err)
	}
	if snap.Enabled {
		t.Fatal("nil profiler reports enabled")
	}
}

func TestSampleDeltasAndGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := newManual(t, Config{Telemetry: reg})
	p.Sample() // establish the baseline

	// Allocate measurably and force a GC so the second sample carries
	// allocation deltas and at least one pause.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 16<<10))
	}
	runtime.GC()
	s := p.Sample()
	_ = sink

	if s.Goroutines <= 0 {
		t.Fatalf("goroutines = %d", s.Goroutines)
	}
	if s.HeapAllocBytes == 0 || s.HeapObjects == 0 {
		t.Fatalf("heap sample empty: %+v", s)
	}
	if s.Mallocs == 0 || s.AllocBytes == 0 {
		t.Fatalf("allocation deltas empty: mallocs=%d bytes=%d", s.Mallocs, s.AllocBytes)
	}
	if s.GCCycles == 0 || len(s.GCPausesNS) == 0 {
		t.Fatalf("GC not observed: cycles=%d pauses=%d", s.GCCycles, len(s.GCPausesNS))
	}
	if s.CostNS <= 0 {
		t.Fatalf("sample cost = %d", s.CostNS)
	}

	// The prof_* series mirror the sample.
	found := map[string]bool{}
	for _, m := range reg.Snapshot() {
		found[m.Name] = true
	}
	for _, name := range []string{
		"prof_goroutines", "prof_heap_alloc_bytes", "prof_heap_objects",
		"prof_alloc_bytes_total", "prof_mallocs_total", "prof_gc_cycles_total",
		"prof_gc_pause_seconds", "prof_sample_cost_seconds",
	} {
		if !found[name] {
			t.Errorf("series %s missing from registry snapshot", name)
		}
	}
}

func TestBreakdownStagesAndContext(t *testing.T) {
	p := newManual(t, Config{})
	b := &telemetry.Span{ID: 42}
	p.Open(b)
	ctx := telemetry.WithSpan(context.Background(), b)
	if telemetry.SpanFrom(ctx) != b {
		t.Fatal("context round-trip lost the record")
	}

	b.Add(telemetry.StageQueue, 5*time.Microsecond)
	b.Add(telemetry.StageQueue, 5*time.Microsecond) // accumulates
	st := b.Begin(telemetry.StageCompute)
	time.Sleep(time.Millisecond)
	st.End()
	if got := b.Wall(telemetry.StageQueue); got != 10*time.Microsecond {
		t.Fatalf("queue wall = %v", got)
	}
	if b.Wall(telemetry.StageCompute) < time.Millisecond {
		t.Fatalf("compute wall = %v", b.Wall(telemetry.StageCompute))
	}

	p.Record(b)
	snap := p.Snapshot()
	if snap.RequestsTotal != 1 {
		t.Fatalf("requests_total = %d", snap.RequestsTotal)
	}
	stages := map[string]StageSummary{}
	for _, s := range snap.Stages {
		stages[s.Stage] = s
	}
	if stages["queue"].TotalNS != int64(10*time.Microsecond) {
		t.Fatalf("queue summary = %+v", stages["queue"])
	}
	if stages["compute"].Count != 1 {
		t.Fatalf("compute summary = %+v", stages["compute"])
	}
	if len(snap.Requests) != 1 || snap.Requests[0].Job != 42 {
		t.Fatalf("flight requests = %+v", snap.Requests)
	}
	if got, want := snap.Requests[0].TotalNS, int64(b.Wall(telemetry.StageQueue)+b.Wall(telemetry.StageCompute)); got != want {
		t.Fatalf("flight total %d != stage sum %d", got, want)
	}
}

func TestCountAllocsAttributesStageAllocations(t *testing.T) {
	p := newManual(t, Config{CountAllocs: true})
	b := &telemetry.Span{}
	p.Open(b)
	st := b.Begin(telemetry.StageEncode)
	sink := make([]byte, 1<<20)
	st.End()
	_ = sink
	if b.Allocs(telemetry.StageEncode) == 0 {
		t.Fatal("alloc counting recorded nothing for a 1MiB allocation")
	}
}

func TestFlightRingBoundedAndOrdered(t *testing.T) {
	now := time.Unix(1000, 0)
	p := newManual(t, Config{Ring: 4, BreakdownRing: 3,
		Clock: func() time.Time { now = now.Add(time.Second); return now }})
	for i := 0; i < 6; i++ {
		p.Sample()
	}
	for i := 0; i < 5; i++ {
		b := &telemetry.Span{ID: int64(100 + i)}
		p.Open(b)
		b.Add(telemetry.StageQueue, time.Microsecond)
		p.Record(b)
	}
	samples, breakdowns := p.flight.snapshot()
	if len(samples) != 4 {
		t.Fatalf("samples retained = %d, want 4", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if !samples[i].Time.After(samples[i-1].Time) {
			t.Fatalf("samples out of order: %v", samples)
		}
	}
	if len(breakdowns) != 3 {
		t.Fatalf("breakdowns retained = %d, want 3", len(breakdowns))
	}
	if breakdowns[0].Job != 102 || breakdowns[2].Job != 104 {
		t.Fatalf("breakdown eviction wrong: %+v", breakdowns)
	}
}

func TestWriteFlightDumpArtifactAndEvent(t *testing.T) {
	events := eventlog.New(eventlog.Config{})
	defer events.Close()
	p := newManual(t, Config{Events: events})
	b := &telemetry.Span{ID: 9}
	p.Open(b)
	b.Add(telemetry.StageCompute, time.Millisecond)
	p.Record(b)

	dir := t.TempDir()
	path, err := p.WriteFlight(dir, "incident-open", 17)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-001.json" {
		t.Fatalf("dump path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "incident-open" || d.IncidentID != 17 {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Samples) == 0 {
		t.Fatal("dump carries no runtime samples")
	}
	if len(d.Requests) != 1 || d.Requests[0].Job != 9 {
		t.Fatalf("dump requests = %+v", d.Requests)
	}

	var dumpEv *eventlog.Event
	for _, ev := range events.Recent() {
		if ev.Name == "prof.flight.dump" {
			e := ev
			dumpEv = &e
		}
	}
	if dumpEv == nil {
		t.Fatal("no prof.flight.dump event emitted")
	}
	if dumpEv.Component != "prof" || dumpEv.Level != eventlog.LevelWarn {
		t.Fatalf("dump event = %+v", dumpEv)
	}

	// A second dump gets the next sequence number.
	path2, err := p.WriteFlight(dir, "slo-page", 18)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path2) != "flight-002.json" {
		t.Fatalf("second dump path = %s", path2)
	}
}

func TestHandlerServesSnapshot(t *testing.T) {
	p := newManual(t, Config{})
	b := &telemetry.Span{}
	p.Open(b)
	b.Add(telemetry.StageObserve, time.Microsecond)
	p.Record(b)
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/prof.json", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("content type = %s", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Enabled || snap.RequestsTotal != 1 || snap.Last.Goroutines == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestWriteSnapshotArtifact(t *testing.T) {
	p := newManual(t, Config{})
	dir := t.TempDir()
	path, err := p.WriteSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "prof.json" {
		t.Fatalf("snapshot path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Enabled {
		t.Fatal("snapshot artifact reports disabled")
	}
}

func TestBackgroundSamplerTicks(t *testing.T) {
	p, err := New(Config{SampleEvery: 2 * time.Millisecond, MutexFraction: -1, BlockRateNS: -1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Snapshot().SamplesTotal >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := p.Snapshot().SamplesTotal
	p.Close()
	if got < 3 {
		t.Fatalf("background sampler took %d samples, want >= 3", got)
	}
}

func TestStageStringCoversAllStages(t *testing.T) {
	seen := map[string]bool{}
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		name := s.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("stage %d name %q invalid or duplicate", s, name)
		}
		seen[name] = true
	}
	if telemetry.Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage should be unknown")
	}
}
