package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Event{Name: "x"})
	tr.Advance("g", time.Second)
	if tr.Anchor("g") != 0 || tr.Cursor("g") != 0 || tr.Elapsed() != 0 {
		t.Fatal("nil tracer reports nonzero time")
	}
	if tr.NewJob() != 0 || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer reports state")
	}
	if tr.Events() != nil {
		t.Fatal("nil tracer returned events")
	}
	if p := tr.Profile(); p.Events != 0 {
		t.Fatal("nil tracer produced a profile")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil tracer WriteChrome: %v", err)
	}
}

func TestAnchorAdvanceCursor(t *testing.T) {
	var now time.Duration
	tr := New(WithClock(func() time.Duration { return now }))

	// With no device backlog the anchor is the wall clock.
	now = 10 * time.Microsecond
	if a := tr.Anchor("csd0"); a != 10*time.Microsecond {
		t.Fatalf("anchor = %v, want wall clock", a)
	}
	// Device work extending past the wall clock pushes the next anchor.
	tr.Advance("csd0", 50*time.Microsecond)
	if a := tr.Anchor("csd0"); a != 50*time.Microsecond {
		t.Fatalf("anchor = %v, want cursor 50µs", a)
	}
	// Advance never moves backward, and groups are independent.
	tr.Advance("csd0", 30*time.Microsecond)
	if c := tr.Cursor("csd0"); c != 50*time.Microsecond {
		t.Fatalf("cursor moved backward to %v", c)
	}
	if a := tr.Anchor("csd1"); a != 10*time.Microsecond {
		t.Fatalf("csd1 anchor = %v, want wall clock", a)
	}
	// Once the wall clock passes the cursor, the anchor follows it again.
	now = 80 * time.Microsecond
	if a := tr.Anchor("csd0"); a != 80*time.Microsecond {
		t.Fatalf("anchor = %v, want wall clock 80µs", a)
	}
}

func TestEmitLimitCountsDropped(t *testing.T) {
	tr := New(WithLimit(2))
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Name: "e"})
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len %d dropped %d, want 2 and 3", tr.Len(), tr.Dropped())
	}
}

func TestEventsSorted(t *testing.T) {
	tr := New()
	tr.Emit(Event{Track: Track{"csd1", "b"}, Name: "late", Start: 30})
	tr.Emit(Event{Track: Track{"csd0", "a"}, Name: "early", Start: 10})
	tr.Emit(Event{Track: Track{"csd0", "a"}, Name: "mid", Start: 20})
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	for i, want := range []string{"early", "mid", "late"} {
		if events[i].Name != want {
			t.Fatalf("event %d = %q, want %q", i, events[i].Name, want)
		}
	}
}

// TestJobContext: job IDs are dense from 1, and a nil tracer hands out 0
// (the ID of an unattributed request).
func TestJobContext(t *testing.T) {
	if (*Tracer)(nil).NewJob() != 0 {
		t.Fatal("nil tracer allocated a job")
	}
	tr := New()
	if a, b := tr.NewJob(), tr.NewJob(); a != 1 || b != 2 {
		t.Fatalf("job IDs = %d, %d, want 1, 2", a, b)
	}
}

// goldenTracer builds the fixed timeline behind the Chrome-export golden: a
// miniature of the real instrumentation's shape — SSD read feeding a P2P
// transfer, a kernel run with loop attribution on two CUs, a DDR landing,
// and a serve queue event — all with hand-placed times so the export is
// byte-stable.
func goldenTracer() *Tracer {
	tr := New(WithClock(func() time.Duration { return 0 }))
	job := tr.NewJob()
	tr.Emit(Event{Track: Track{"serve", "device0"}, Name: "queue:predict-stored",
		Cat: CatQueue, Start: 0, Dur: 2 * time.Microsecond, Job: job})
	tr.Emit(Event{Track: Track{"csd0", "ssd"}, Name: "ssd-read",
		Cat: CatTransfer, Start: 2 * time.Microsecond, Dur: 8 * time.Microsecond, Job: job})
	tr.Emit(Event{Track: Track{"csd0", "pcie-internal"}, Name: "p2p",
		Cat: CatTransfer, Start: 10 * time.Microsecond, Dur: 4 * time.Microsecond, Job: job})
	tr.Emit(Event{Track: Track{"csd0", "ddr-bank1"}, Name: "ddr:p2p",
		Cat: CatTransfer, Start: 10 * time.Microsecond, Dur: 4 * time.Microsecond, Job: job})
	tr.Emit(Event{Track: Track{"csd0", "xrt"}, Name: "SyncFromSSD",
		Cat: CatRuntime, Start: 2 * time.Microsecond, Dur: 12 * time.Microsecond, Job: job})
	for cu := 0; cu < 2; cu++ {
		name := "cu-kernel_gates-0"
		if cu == 1 {
			name = "cu-kernel_gates-1"
		}
		tr.Emit(Event{Track: Track{"csd0", name}, Name: "kernel_gates",
			Cat: CatKernel, Start: 12 * time.Microsecond, Dur: 6 * time.Microsecond,
			Job: job, Cycles: 300, Loops: []LoopCycles{{Name: "mac", Cycles: 300}}})
	}
	return tr
}

func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome export mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Determinism: a second export of the same timeline is byte-identical.
	var again bytes.Buffer
	if err := goldenTracer().WriteChrome(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two exports of the same timeline differ")
	}
}

func TestWriteChromeIsValidTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	meta, complete := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Args["name"] == nil {
				t.Errorf("metadata event %q missing args.name", ev.Name)
			}
		case "X":
			complete++
			if ev.PID == 0 || ev.TID == 0 {
				t.Errorf("event %q missing pid/tid", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	// 2 process_name + 7 thread_name metadata records, 7 complete events.
	if meta != 9 || complete != 7 {
		t.Fatalf("got %d metadata + %d complete events, want 9 + 7", meta, complete)
	}
}

func TestProfileAggregation(t *testing.T) {
	tr := New()
	// Transfer 0–10µs; kernel 5–15µs on the same device group: 5µs overlap.
	tr.Emit(Event{Track: Track{"csd0", "pcie-internal"}, Name: "p2p",
		Cat: CatTransfer, Start: 0, Dur: 10 * time.Microsecond})
	tr.Emit(Event{Track: Track{"csd0", "cu-k"}, Name: "k", Cat: CatKernel,
		Start: 5 * time.Microsecond, Dur: 10 * time.Microsecond,
		Cycles: 100, Loops: []LoopCycles{{"a", 60}, {"b", 40}}})
	// A second kernel on another group: concurrency, not overlap.
	tr.Emit(Event{Track: Track{"csd1", "cu-k"}, Name: "k", Cat: CatKernel,
		Start: 0, Dur: 10 * time.Microsecond, Cycles: 100,
		Loops: []LoopCycles{{"a", 50}, {"b", 50}}})
	tr.Emit(Event{Track: Track{"serve", "device0"}, Name: "queue:predict",
		Cat: CatQueue, Start: 0, Dur: 3 * time.Microsecond, Job: 1})

	p := tr.Profile()
	if p.Events != 4 || p.Span != 15*time.Microsecond {
		t.Fatalf("events %d span %v", p.Events, p.Span)
	}
	if p.TotalKernelCycles != 200 || p.AttributedCycles != 200 || p.AttributedShare != 1.0 {
		t.Fatalf("attribution = %d/%d (%.2f)", p.AttributedCycles, p.TotalKernelCycles, p.AttributedShare)
	}
	if len(p.Kernels) != 1 {
		t.Fatalf("kernel profiles = %d", len(p.Kernels))
	}
	k := p.Kernels[0]
	if k.Kernel != "k" || k.CUs != 1 || k.Events != 2 || k.Cycles != 200 {
		t.Fatalf("kernel profile %+v", k)
	}
	if len(k.Loops) != 2 || k.Loops[0].Name != "a" || k.Loops[0].Cycles != 110 {
		t.Fatalf("loop breakdown %+v", k.Loops)
	}
	if p.Overlap != 5*time.Microsecond {
		t.Fatalf("overlap = %v, want 5µs (cross-group concurrency must not count)", p.Overlap)
	}
	if p.TransferBusy != 10*time.Microsecond || p.ComputeBusy != 20*time.Microsecond {
		t.Fatalf("transfer %v compute %v", p.TransferBusy, p.ComputeBusy)
	}
	if p.QueueJobs != 1 || p.QueueWait != 3*time.Microsecond {
		t.Fatalf("queue jobs %d wait %v", p.QueueJobs, p.QueueWait)
	}
	out := p.Format()
	for _, want := range []string{"kernel cycles", "100.0% attributed", "track occupancy", "overlap"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestProfileMergesOverlappingIntervals(t *testing.T) {
	tr := New()
	// Two transfers sharing the same 0–10µs window (the DDR-landing pattern)
	// must count as 10µs busy, not 20µs.
	tr.Emit(Event{Track: Track{"csd0", "pcie-internal"}, Name: "p2p",
		Cat: CatTransfer, Start: 0, Dur: 10 * time.Microsecond})
	tr.Emit(Event{Track: Track{"csd0", "ddr-bank0"}, Name: "ddr:p2p",
		Cat: CatTransfer, Start: 0, Dur: 10 * time.Microsecond})
	if p := tr.Profile(); p.TransferBusy != 10*time.Microsecond {
		t.Fatalf("transfer busy = %v, want 10µs", p.TransferBusy)
	}
}

// TestConcurrentEmitStress drives every mutating and reading entry point
// from many goroutines at once; run under -race it is the data-race proof
// for the instrumented serving path (multiple device workers sharing one
// tracer).
func TestConcurrentEmitStress(t *testing.T) {
	tr := New()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			group := "csd" + string(rune('0'+w%2))
			for i := 0; i < perWorker; i++ {
				job := tr.NewJob()
				at := tr.Anchor(group)
				tr.Emit(Event{Track: Track{group, "cu-k"}, Name: "k", Cat: CatKernel,
					Start: at, Dur: time.Microsecond, Job: job, Cycles: 10,
					Loops: []LoopCycles{{"l", 10}}})
				tr.Advance(group, at+time.Microsecond)
				if i%50 == 0 {
					_ = tr.Events()
					_ = tr.Profile()
					_ = tr.WriteChrome(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*perWorker {
		t.Fatalf("retained %d events, want %d", tr.Len(), workers*perWorker)
	}
	if p := tr.Profile(); p.AttributedShare != 1.0 {
		t.Fatalf("attribution = %.3f", p.AttributedShare)
	}
}
