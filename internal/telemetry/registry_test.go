package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the fixed registry behind the exposition golden
// test: a labeled counter family, a gauge, and a histogram with known
// observations.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs executed.", L("device", "0")).Add(3)
	r.Counter("jobs_total", "Jobs executed.", L("device", "1")).Add(5)
	r.Gauge("queue_depth", "Current backlog.", L("device", "0")).Set(2)
	h := r.Histogram("wait_seconds", "Queue wait.",
		DurationBuckets(time.Microsecond, time.Millisecond))
	h.ObserveDuration(500 * time.Nanosecond)
	h.ObserveDuration(2 * time.Millisecond)
	b := r.Histogram("batch_size", "Coalesced batch sizes.", CountBuckets(1, 2, 4))
	b.Observe(1)
	b.Observe(3)
	return r
}

func TestPrometheusExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
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
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "", L("k", "v"))
	b := r.Counter("c_total", "", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("c_total", "", L("k", "w"))
	if a == other {
		t.Fatal("different label value returned the same counter")
	}
	// Label order must not matter.
	h1 := r.Histogram("h_seconds", "", Buckets{}, L("a", "1"), L("b", "2"))
	h2 := r.Histogram("h_seconds", "", Buckets{}, L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order changed series identity")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestRegistryBadNamePanics(t *testing.T) {
	for _, name := range []string{"", "9lives", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
}

func TestRegistryJSONSnapshot(t *testing.T) {
	body, err := marshalJSON(goldenRegistry().jsonDoc())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Metric `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(doc.Metrics) != 5 {
		t.Fatalf("snapshot has %d series, want 5", len(doc.Metrics))
	}
	byName := map[string]Metric{}
	for _, m := range doc.Metrics {
		byName[m.Name+labelKey(m.Labels)] = m
	}
	if m := byName["jobs_total"+labelKey([]Label{L("device", "1")})]; m.Value != 5 {
		t.Errorf("jobs_total{device=1} = %d, want 5", m.Value)
	}
	wait, ok := byName["wait_seconds"]
	if !ok || wait.Histogram == nil {
		t.Fatal("wait_seconds histogram missing from JSON snapshot")
	}
	if wait.Histogram.Count != 2 || wait.Histogram.Unit != "seconds" {
		t.Errorf("wait_seconds snapshot = %+v", wait.Histogram)
	}
}

// TestMetricsJSONMatchesEncoder pins the /metrics.json body served through
// ServeJSON to the bytes the endpoint wrote before it marshalled first: a
// json.Encoder with two-space indent, which ends the document with a
// newline as ServeJSON does.
func TestMetricsJSONMatchesEncoder(t *testing.T) {
	for name, r := range map[string]*Registry{"golden": goldenRegistry(), "empty": NewRegistry()} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.jsonDoc()); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		ServeJSON(rec, http.StatusOK, r.jsonDoc())
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("%s registry: served body differs from the encoder output\ngot:\n%s\nwant:\n%s", name, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s registry: Content-Type %q", name, ct)
		}
	}
}

func TestWriteSummaryMentionsEverySeries(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`jobs_total{device="0"}`, `queue_depth{device="0"}`,
		"wait_seconds", "batch_size", "±",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c_total", "", L("w", string(rune('a'+n%4)))).Inc()
				r.Histogram("h_seconds", "", Buckets{}).ObserveDuration(time.Microsecond)
				if j%100 == 0 {
					_ = r.Snapshot()
					var buf bytes.Buffer
					_ = r.WritePrometheus(&buf)
				}
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, m := range r.Snapshot() {
		if m.Name == "c_total" {
			total += m.Value
		}
	}
	if total != 8*500 {
		t.Fatalf("counter total = %d, want %d", total, 8*500)
	}
}
