package eventlog

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// fixedClock returns a deterministic, strictly increasing clock.
func fixedClock() func() time.Time {
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	var n int64
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestEventJSONGolden(t *testing.T) {
	ev := Event{
		Seq:       7,
		Time:      time.Date(2026, 8, 5, 12, 0, 0, 123456789, time.UTC),
		Level:     LevelWarn,
		Component: "serve",
		Name:      "queue.full",
		Job:       42,
		PID:       1337,
		Device:    "csd-003",
		Fields: []Field{
			F("depth", 64),
			F("wait_ns", 1500*time.Nanosecond),
			F("ratio", 0.25),
			F("blocked", true),
			F("err", errors.New(`boom "quoted"`)),
		},
	}
	got := string(ev.AppendJSON(nil))
	want := `{"seq":7,"ts":"2026-08-05T12:00:00.123456789Z","level":"warn","component":"serve",` +
		`"event":"queue.full","job":42,"pid":1337,"device":"csd-003","depth":64,"wait_ns":1500,` +
		`"ratio":0.25,"blocked":true,"err":"boom \"quoted\""}`
	if got != want {
		t.Errorf("AppendJSON:\n got %s\nwant %s", got, want)
	}
	// The line must round-trip through a standard JSON decoder.
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
	if m["job"] != float64(42) || m["wait_ns"] != float64(1500) {
		t.Errorf("decoded fields wrong: %v", m)
	}
}

func TestLevelsAndFiltering(t *testing.T) {
	l := New(Config{MinLevel: LevelWarn, Clock: fixedClock()})
	ctx := context.Background()
	l.Debug(ctx, "c", "dropped.debug")
	l.Info(ctx, "c", "dropped.info")
	l.Warn(ctx, "c", "kept.warn")
	l.Error(ctx, "c", "kept.error")
	if got := l.Total(); got != 2 {
		t.Fatalf("Total = %d, want 2", got)
	}
	rec := l.Recent()
	if len(rec) != 2 || rec[0].Name != "kept.warn" || rec[1].Name != "kept.error" {
		t.Fatalf("Recent = %+v", rec)
	}
	// Sequence numbers have no gaps: filtered events are never assigned one.
	if rec[0].Seq != 1 || rec[1].Seq != 2 {
		t.Errorf("seq gap after filtering: %d, %d", rec[0].Seq, rec[1].Seq)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelWarn) {
		t.Error("Enabled disagrees with MinLevel")
	}
	l.SetLevel(LevelDebug)
	if !l.Enabled(LevelDebug) {
		t.Error("SetLevel did not lower the threshold")
	}
}

func TestRingEviction(t *testing.T) {
	l := New(Config{Clock: fixedClock()})
	const n = ringSize + 6
	for i := 0; i < n; i++ {
		l.Info(context.Background(), "c", fmt.Sprintf("e%d", i))
	}
	rec := l.Recent()
	if len(rec) != ringSize {
		t.Fatalf("retained %d, want %d", len(rec), ringSize)
	}
	for i, ev := range rec {
		if want := fmt.Sprintf("e%d", 6+i); ev.Name != want {
			t.Fatalf("ring[%d] = %s, want %s", i, ev.Name, want)
		}
	}
	if l.Total() != n {
		t.Errorf("Total = %d, want %d", l.Total(), n)
	}
}

func TestJobCorrelationFromContext(t *testing.T) {
	l := New(Config{Clock: fixedClock()})
	ctx := telemetry.WithSpan(context.Background(), &telemetry.Span{ID: 99})
	l.Info(ctx, "engine", "classified")
	l.LogPID(ctx, LevelWarn, "detect", "window.alert", 4242, F("p", 0.97))
	rec := l.Recent()
	if rec[0].Job != 99 {
		t.Errorf("Job = %d, want 99", rec[0].Job)
	}
	if rec[1].Job != 99 || rec[1].PID != 4242 {
		t.Errorf("LogPID event = %+v", rec[1])
	}
	// A nil logger ignores everything without panicking.
	var nilLog *Logger
	nilLog.Info(ctx, "c", "x")
	nilLog.LogPID(ctx, LevelError, "c", "x", 1)
	if nilLog.Enabled(LevelError) || nilLog.Total() != 0 || nilLog.Recent() != nil {
		t.Error("nil logger not inert")
	}
	if err := nilLog.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestFileSinkJSONLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	l := New(Config{Clock: fixedClock()})
	l.Attach("file", sink)
	for i := 0; i < 5; i++ {
		l.Info(context.Background(), "c", "tick", F("i", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v", lines, err)
		}
		if m["i"] != float64(lines) {
			t.Errorf("line %d: i = %v", lines, m["i"])
		}
		lines++
	}
	if lines != 5 {
		t.Errorf("file has %d lines, want 5", lines)
	}
	// Close detaches sinks but preserves their final delivery counters.
	stats := l.SinkStats()
	if len(stats) != 1 || stats[0].Name != "file" || stats[0].Written != 5 || stats[0].Dropped != 0 {
		t.Errorf("SinkStats after Close = %+v", stats)
	}
}

// blockingSink blocks every WriteEvent until released.
type blockingSink struct {
	release chan struct{}
	got     []Event
	mu      sync.Mutex
}

func (b *blockingSink) WriteEvent(ev Event) error {
	<-b.release
	b.mu.Lock()
	b.got = append(b.got, ev)
	b.mu.Unlock()
	return nil
}

func TestSlowSinkDropsWithoutBlocking(t *testing.T) {
	blocked := &blockingSink{release: make(chan struct{})}
	l := New(Config{Clock: fixedClock()})
	l.Attach("slow", blocked)
	capture := &CaptureSink{}
	l.Attach("fast", capture)

	// Emit past the slow sink's queue in bursts of 64, letting the healthy
	// sink drain between bursts so only the stalled one overflows.
	const n = sinkQueue + 128
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			l.Info(context.Background(), "c", "burst", F("i", i))
			if (i+1)%64 == 0 {
				for len(capture.Events()) < i+1 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("emission blocked on a slow sink")
	}
	close(blocked.release)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The stalled sink got a full queue (plus the one event it was
	// holding) and dropped the rest, counting every drop.
	blocked.mu.Lock()
	delivered := len(blocked.got)
	blocked.mu.Unlock()
	if delivered < sinkQueue || delivered > sinkQueue+1 {
		t.Errorf("slow sink delivered %d of %d, want its queue of %d (+1 in flight)", delivered, n, sinkQueue)
	}
	stats := l.SinkStats()
	if stats[0].Name != "slow" || stats[0].Dropped != int64(n-delivered) {
		t.Errorf("slow sink stats %+v, want %d dropped", stats[0], n-delivered)
	}
	// The healthy sink saw everything despite its sibling stalling.
	if got := len(capture.Events()); got != n || stats[1].Dropped != 0 {
		t.Errorf("fast sink received %d of %d (stats %+v)", got, n, stats[1])
	}
}

// failingSink always errors.
type failingSink struct{}

func (failingSink) WriteEvent(Event) error { return errors.New("disk full") }

func TestSinkErrorsCounted(t *testing.T) {
	l := New(Config{Clock: fixedClock()})
	l.Attach("bad", failingSink{})
	l.Info(context.Background(), "c", "x")
	l.Info(context.Background(), "c", "y")
	// Wait for delivery before reading stats.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := l.SinkStats()
		if len(st) == 1 && st[0].Written == 2 {
			if st[0].Errors != 2 {
				t.Errorf("Errors = %d, want 2", st[0].Errors)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPHandler(t *testing.T) {
	l := New(Config{MinLevel: LevelDebug, Clock: fixedClock()})
	ctx := context.Background()
	l.Debug(ctx, "csd", "transfer.p2p", F("bytes", 400))
	l.Info(ctx, "serve", "dispatch", F("device", "0"))
	l.Warn(ctx, "detect", "window.alert", F("p", 0.9))
	l.Error(ctx, "detect", "mitigation.block", F("p", 0.99))

	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	get := func(q string) map[string]any {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", q, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", q, err, buf.String())
		}
		return doc
	}

	doc := get("/events.json")
	if doc["total"] != float64(4) || len(doc["events"].([]any)) != 4 {
		t.Fatalf("unfiltered doc = %v", doc)
	}
	doc = get("/events.json?level=warn")
	if evs := doc["events"].([]any); len(evs) != 2 {
		t.Fatalf("level=warn returned %d events", len(evs))
	}
	doc = get("/events.json?n=1")
	evs := doc["events"].([]any)
	if len(evs) != 1 || evs[0].(map[string]any)["event"] != "mitigation.block" {
		t.Fatalf("n=1 = %v", evs)
	}
	if resp, err := srv.Client().Get(srv.URL + "?level=bogus"); err != nil || resp.StatusCode != 400 {
		t.Errorf("bad level: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// A nil logger still serves a valid, empty document.
	var nilLog *Logger
	nilSrv := httptest.NewServer(nilLog.HTTPHandler())
	defer nilSrv.Close()
	resp, err := nilSrv.Client().Get(nilSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var empty struct {
		Total  int     `json:"total"`
		Events []Event `json:"-"`
		Raw    []any   `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&empty); err != nil {
		t.Fatalf("nil logger doc invalid: %v", err)
	}
	if empty.Total != 0 || len(empty.Raw) != 0 {
		t.Errorf("nil logger doc = %+v", empty)
	}
}

// TestConcurrentEmission pins concurrency safety: many writers, a reader,
// a sink, and the HTTP handler all running under -race.
func TestConcurrentEmission(t *testing.T) {
	l := New(Config{})
	capture := &CaptureSink{}
	l.Attach("cap", capture)
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()

	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := telemetry.WithSpan(context.Background(), &telemetry.Span{ID: int64(w + 1)})
			for i := 0; i < perWriter; i++ {
				l.Info(ctx, "stress", "tick", F("writer", w), F("i", i))
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 50; i++ {
			_ = l.Recent()
			_ = l.SinkStats()
			resp, err := srv.Client().Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	<-readerDone
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Total(); got != writers*perWriter {
		t.Errorf("Total = %d, want %d", got, writers*perWriter)
	}
	// Every event has a unique sequence number.
	seen := make(map[int64]bool)
	for _, ev := range capture.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
	}{{"debug", LevelDebug}, {"info", LevelInfo}, {"warn", LevelWarn}, {"error", LevelError}} {
		got, err := ParseLevel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted nonsense")
	}
}
