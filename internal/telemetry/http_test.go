package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHTTPHandlerEndpoints(t *testing.T) {
	r := goldenRegistry()
	spans := NewSpanLog(4)
	spans.Add(Span{Name: "window", Phases: []Phase{{Name: PhaseCompute, Duration: time.Microsecond}}})
	srv := httptest.NewServer(NewHTTPHandler(r, HTTPOptions{Spans: spans}))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type %q", ct)
	}
	for _, want := range []string{
		"# TYPE jobs_total counter",
		`jobs_total{device="0"} 3`,
		`wait_seconds_bucket{le="+Inf"} 2`,
		"wait_seconds_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, body = get("/metrics.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json status %d", resp.StatusCode)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	var metrics []Metric
	if err := json.Unmarshal(doc["metrics"], &metrics); err != nil || len(metrics) == 0 {
		t.Fatalf("/metrics.json: %d metrics (%v)", len(metrics), err)
	}
	// Span rows are served once, at /spans.json.
	if len(doc) != 1 {
		t.Fatalf("/metrics.json keys beyond metrics: %s", body)
	}

	resp, body = get("/spans.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/spans.json status %d", resp.StatusCode)
	}
	var spansDoc struct {
		Total    int64  `json:"total"`
		Retained int    `json:"retained"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &spansDoc); err != nil {
		t.Fatalf("/spans.json invalid: %v", err)
	}
	if spansDoc.Total != 1 || spansDoc.Retained != 1 || len(spansDoc.Spans) != 1 {
		t.Fatalf("/spans.json: total %d retained %d spans %d",
			spansDoc.Total, spansDoc.Retained, len(spansDoc.Spans))
	}
	if spansDoc.Spans[0].Name != "window" {
		t.Errorf("/spans.json span = %+v", spansDoc.Spans[0])
	}

	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	var health struct {
		Status string `json:"status"`
		Build  struct {
			GoVersion string `json:"go_version"`
			Module    string `json:"module"`
		} `json:"build"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz invalid: %v", err)
	}
	if health.Status != "ok" {
		t.Errorf("/healthz status = %q", health.Status)
	}
	// The binary always knows the Go version it was built with; VCS fields
	// depend on how the test binary was produced and are not pinned.
	if !strings.HasPrefix(health.Build.GoVersion, "go") {
		t.Errorf("/healthz go_version = %q", health.Build.GoVersion)
	}
	if health.Build.Module != "github.com/kfrida1/csdinf" {
		t.Errorf("/healthz module = %q", health.Build.Module)
	}
	if health.UptimeSeconds <= 0 {
		t.Errorf("/healthz uptime_seconds = %v, want > 0", health.UptimeSeconds)
	}
}

// TestHTTPHandlerZeroSpans pins the empty-ring shape of /spans.json: a nil
// SpanLog (and one that never recorded) must serve "spans": [] — not null —
// so jq pipelines and dashboards can iterate unconditionally.
func TestHTTPHandlerZeroSpans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans *SpanLog
	}{
		{"nil-log", nil},
		{"empty-log", NewSpanLog(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(NewHTTPHandler(NewRegistry(), HTTPOptions{Spans: tc.spans}))
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/spans.json")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(body), `"spans": []`) {
				t.Fatalf("/spans.json empty ring not normalized:\n%s", body)
			}
			var doc struct {
				Total    int64  `json:"total"`
				Retained int    `json:"retained"`
				Spans    []Span `json:"spans"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Total != 0 || doc.Retained != 0 || len(doc.Spans) != 0 {
				t.Fatalf("empty ring doc = %+v", doc)
			}
		})
	}
}

// TestHTTPHandlerZeroMetrics pins the zero-state shape of /metrics.json: a
// nil registry must serve "metrics": [] — not null — matching the
// normalization every other JSON endpoint in the stack guarantees.
func TestHTTPHandlerZeroMetrics(t *testing.T) {
	srv := httptest.NewServer(NewHTTPHandler(nil, HTTPOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"metrics": []`) {
		t.Fatalf("/metrics.json zero state not normalized:\n%s", body)
	}
}

// TestSpanLogConcurrentWriters hammers one SpanLog from writers while
// /spans.json and Snapshot readers race them (run with -race). Retention
// must hold: the ring never exceeds capacity and Total counts every Add.
func TestSpanLogConcurrentWriters(t *testing.T) {
	const writers, adds, capacity = 8, 500, 32
	spans := NewSpanLog(capacity)
	srv := httptest.NewServer(NewHTTPHandler(NewRegistry(), HTTPOptions{Spans: spans}))
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				spans.Add(Span{
					Name: "window", ID: int64(w*adds + i + 1),
					Phases: []Phase{{Name: PhaseCompute, Duration: time.Microsecond}},
				})
			}
		}(w)
	}
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		for i := 0; i < 20; i++ {
			resp, err := http.Get(srv.URL + "/spans.json")
			if err != nil {
				readErr <- err
				return
			}
			var doc struct {
				Retained int    `json:"retained"`
				Spans    []Span `json:"spans"`
			}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				readErr <- err
				return
			}
			if doc.Retained > capacity || len(doc.Spans) > capacity {
				readErr <- fmt.Errorf("retention exceeded: retained %d of cap %d", doc.Retained, capacity)
				return
			}
		}
	}()
	wg.Wait()
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	if got := spans.Total(); got != writers*adds {
		t.Fatalf("Total = %d, want %d", got, writers*adds)
	}
	if got := len(spans.Snapshot()); got != capacity {
		t.Fatalf("retained %d spans, want %d", got, capacity)
	}
}

// TestHealthzDegraded pins the honest-degradation contract: with a Health
// hook reporting not-ready, plain /healthz stays 200 (the process is alive)
// but reports the degraded status, while /healthz?ready=1 answers 503 so
// readiness probes can gate on serving capacity.
func TestHealthzDegraded(t *testing.T) {
	var mu sync.Mutex
	status, ready := "ok", true
	srv := httptest.NewServer(NewHTTPHandler(NewRegistry(), HTTPOptions{
		Health: func() (string, bool) {
			mu.Lock()
			defer mu.Unlock()
			return status, ready
		},
	}))
	defer srv.Close()

	check := func(path string, wantCode int, wantStatus string, wantReady bool) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("%s status code = %d, want %d", path, resp.StatusCode, wantCode)
		}
		var doc struct {
			Status string `json:"status"`
			Ready  bool   `json:"ready"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("%s invalid JSON: %v", path, err)
		}
		if doc.Status != wantStatus || doc.Ready != wantReady {
			t.Errorf("%s = {%q, %v}, want {%q, %v}", path, doc.Status, doc.Ready, wantStatus, wantReady)
		}
	}

	check("/healthz", http.StatusOK, "ok", true)
	check("/healthz?ready=1", http.StatusOK, "ok", true)

	mu.Lock()
	status, ready = "degraded", false
	mu.Unlock()
	check("/healthz", http.StatusOK, "degraded", false)
	check("/healthz?ready=1", http.StatusServiceUnavailable, "degraded", false)
}

// TestHTTPHandlerExtraMounts checks HTTPOptions.Extra mounts additional
// endpoints alongside the built-ins (how /events.json and /incidents.json
// reach the telemetry server without inverting the import graph).
func TestHTTPHandlerExtraMounts(t *testing.T) {
	extra := map[string]http.Handler{
		"/extra.json": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte(`{"extra":true}`))
		}),
	}
	srv := httptest.NewServer(NewHTTPHandler(NewRegistry(), HTTPOptions{Extra: extra}))
	defer srv.Close()
	for _, path := range []string{"/extra.json", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
}

// TestExtraMountCollisionPanics pins the duplicate-mount diagnosis: an extra
// handler on a built-in path is a wiring bug that must fail loudly at
// construction with a message naming the offending pattern, not surface as a
// shadowed scrape or an opaque mux panic later.
func TestExtraMountCollisionPanics(t *testing.T) {
	for _, pattern := range []string{"/metrics", "/metrics.json", "/spans.json", "/healthz"} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic for extra mount on %s", pattern)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "telemetry:") || !strings.Contains(msg, pattern) {
					t.Fatalf("panic for %s = %v, want telemetry-prefixed message naming the pattern", pattern, r)
				}
			}()
			NewHTTPHandler(NewRegistry(), HTTPOptions{Extra: map[string]http.Handler{
				pattern: http.NotFoundHandler(),
			}})
		}()
	}
}

// TestRuntimeSeriesOnDefaultScrape pins satellite coverage: every metrics
// endpoint carries baseline Go runtime health without any explicit wiring,
// refreshed at scrape time.
func TestRuntimeSeriesOnDefaultScrape(t *testing.T) {
	srv := httptest.NewServer(NewHTTPHandler(NewRegistry(), HTTPOptions{}))
	defer srv.Close()

	runtime.GC() // guarantee at least one pause for go_gc_pauses_total

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"# TYPE go_heap_alloc_bytes gauge",
		"# TYPE go_gc_pauses_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Metric `json:"metrics"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, m := range doc.Metrics {
		vals[m.Name] = m.Value
	}
	if vals["go_goroutines"] <= 0 {
		t.Errorf("go_goroutines = %d, want > 0", vals["go_goroutines"])
	}
	if vals["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %d, want > 0", vals["go_heap_alloc_bytes"])
	}
	if vals["go_gc_pauses_total"] <= 0 {
		t.Errorf("go_gc_pauses_total = %d, want > 0 after runtime.GC", vals["go_gc_pauses_total"])
	}
}
