package prof

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
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
	// runtime/metrics counts small allocations when a span leaves its
	// mcache; a GC flushes every mcache, so both samples see exact counts.
	runtime.GC()
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
	if s.GCCycles == 0 || s.GCPauses == 0 {
		t.Fatalf("GC not observed: cycles=%d pauses=%d", s.GCCycles, s.GCPauses)
	}
	if s.CostNS <= 0 {
		t.Fatalf("sample cost = %d", s.CostNS)
	}

	// The go_* and prof_* series mirror the sample; the pause histogram
	// holds one observation per pause the sampler saw.
	found := map[string]telemetry.Metric{}
	for _, m := range reg.Snapshot() {
		found[m.Name] = m
	}
	for name, want := range map[string]bool{
		"go_goroutines": true, "go_heap_alloc_bytes": true, "go_gc_pauses_total": true,
		"prof_heap_objects": true, "prof_alloc_bytes_total": true, "prof_mallocs_total": true,
		"prof_gc_cycles_total": true, "prof_gc_pause_seconds": true, "prof_sample_cost_seconds": true,
		// Deleted: they duplicated go_goroutines and go_heap_alloc_bytes.
		"prof_goroutines": false, "prof_heap_alloc_bytes": false,
	} {
		if _, ok := found[name]; ok != want {
			t.Errorf("series %s registered = %v, want %v", name, ok, want)
		}
	}
	if h := found["prof_gc_pause_seconds"].Histogram; h == nil || uint64(h.Count) != s.GCPauses {
		t.Errorf("prof_gc_pause_seconds = %+v, want %d observations", h, s.GCPauses)
	}
}

// TestSamplerNeverStopsTheWorld: sampling reads runtime/metrics, so it
// adds no non-GC stop-the-world pause (runtime.ReadMemStats adds one per
// call).
func TestSamplerNeverStopsTheWorld(t *testing.T) {
	p := newManual(t, Config{Telemetry: telemetry.NewRegistry()})
	stw := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	pauses := func() (n uint64) {
		metrics.Read(stw)
		for _, c := range stw[0].Value.Float64Histogram().Counts {
			n += c
		}
		return n
	}
	before := pauses()
	for i := 0; i < 10; i++ {
		p.Sample()
	}
	if d := pauses() - before; d != 0 {
		t.Fatalf("10 samples stopped the world %d times", d)
	}
}

func TestBreakdownStagesAndContext(t *testing.T) {
	spans := telemetry.NewSpanLog(8)
	reg := telemetry.NewRegistry()
	p := newManual(t, Config{Telemetry: reg, Spans: spans})
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

	// The record's creator flushes it to both sinks.
	spans.Add(*b)
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
	// The per-request wall is the sum of the record's stage walls.
	want := int64(b.Wall(telemetry.StageQueue) + b.Wall(telemetry.StageCompute))
	if got := stages["queue"].TotalNS + stages["compute"].TotalNS; got != want {
		t.Fatalf("stage totals sum to %d, want %d", got, want)
	}
	req := reg.Histogram("prof_request_wall_seconds", "", telemetry.Buckets{}).Snapshot()
	if req.Count != 1 || req.Sum != want {
		t.Fatalf("prof_request_wall_seconds count %d sum %d, want 1 and %d", req.Count, req.Sum, want)
	}
	if reqs := p.Flight("test", 0).Requests; len(reqs) != 1 || !reflect.DeepEqual(reqs[0], *b) {
		t.Fatalf("flight requests = %+v, want the record %+v", reqs, *b)
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
	spans := telemetry.NewSpanLog(3)
	p := newManual(t, Config{Spans: spans,
		Clock: func() time.Time { now = now.Add(time.Second); return now }})
	// Flight takes one more sample, so the ring drops the first six.
	for i := 0; i < sampleRing+5; i++ {
		p.Sample()
	}
	for i := 0; i < 5; i++ {
		b := &telemetry.Span{ID: int64(100 + i)}
		p.Open(b)
		b.Add(telemetry.StageQueue, time.Microsecond)
		spans.Add(*b)
		p.Record(b)
	}
	d := p.Flight("test", 0)
	samples, breakdowns := d.Samples, d.Requests
	if len(samples) != sampleRing {
		t.Fatalf("samples retained = %d, want %d", len(samples), sampleRing)
	}
	if first := samples[0].Time; !first.Equal(time.Unix(1007, 0)) {
		t.Fatalf("oldest retained sample at %v, want the seventh (%v)", first, time.Unix(1007, 0))
	}
	for i := 1; i < len(samples); i++ {
		if !samples[i].Time.After(samples[i-1].Time) {
			t.Fatalf("samples out of order: %v", samples)
		}
	}
	if len(breakdowns) != 3 {
		t.Fatalf("breakdowns retained = %d, want 3", len(breakdowns))
	}
	if breakdowns[0].ID != 102 || breakdowns[2].ID != 104 {
		t.Fatalf("breakdown eviction wrong: %+v", breakdowns)
	}
}

func TestWriteFlightDumpArtifactAndEvent(t *testing.T) {
	events := eventlog.New(eventlog.Config{})
	defer events.Close()
	spans := telemetry.NewSpanLog(8)
	p := newManual(t, Config{Events: events, Spans: spans})
	b := &telemetry.Span{ID: 9}
	p.Open(b)
	b.Record(telemetry.PhaseCompute, 200*time.Microsecond)
	b.Add(telemetry.StageCompute, time.Millisecond)
	spans.Add(*b)
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
	if len(d.Requests) != 1 || d.Requests[0].ID != 9 || len(d.Requests[0].Phases) != 1 {
		t.Fatalf("dump requests = %+v", d.Requests)
	}
	// The row carries both clocks: the simulated phase and the host stage.
	if !strings.Contains(string(data), `"stage_ns": {`) || !strings.Contains(string(data), `"compute": 1000000`) {
		t.Fatalf("dump request row lacks host stage costs:\n%s", data)
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
