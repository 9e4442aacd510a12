package telemetry_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/slo"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// stepClock is a test clock that advances one millisecond per reading, so
// every timestamp in a served document is distinct and reproducible.
type stepClock struct{ now time.Time }

func (c *stepClock) Now() time.Time {
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

// observabilityHandler wires the event log, incident recorder, SLO
// evaluator and quality scorecard the way csdload does, drives each through
// a fixed scenario on a fixed clock, and mounts their JSON endpoints on one
// telemetry handler.
func observabilityHandler(t *testing.T) http.Handler {
	t.Helper()
	clk := &stepClock{now: time.Date(2024, 6, 24, 12, 0, 0, 0, time.UTC)}
	reg := telemetry.NewRegistry()
	events := eventlog.New(eventlog.Config{Clock: clk.Now})
	events.Attach("capture", &eventlog.CaptureSink{})
	incidents, err := incident.NewRecorder(incident.Config{
		Events: events, Clock: clk.Now,
		Generation: func() int64 { return 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	evaluator, err := slo.NewEvaluator(slo.Config{
		Objectives: []slo.Objective{
			{Name: "availability", Kind: slo.KindAvailability, Target: 0.99, Window: time.Hour},
			{Name: "recall", Kind: slo.KindRecall, Target: 0.9, Window: time.Hour},
		},
		Telemetry: reg, Events: events, Incidents: incidents, Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	refScores := make([]float64, 100)
	for i := range refScores {
		refScores[i] = float64(i%10)/10 + 0.05
	}
	ref, err := quality.NewReference("pinned", refScores)
	if err != nil {
		t.Fatal(err)
	}
	card, err := quality.New(quality.Config{
		Telemetry: reg, Events: events, SLO: evaluator.Quality,
		Reference: ref, Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Quality: 240 labeled windows over 12 processes of three families
	// plus benign traffic; scores skew high, so drift fires past the
	// low-count guard.
	families := []string{"wannacry", "lockbit", "ryuk", "office"}
	for i := 0; i < 240; i++ {
		pid := 100 + i%12
		fam := families[pid%4]
		truth := fam != "office"
		p := float64((i*7)%20)/20 + 0.02
		if truth {
			p = 0.5 + p/2
		}
		ctx := quality.WithLabel(context.Background(), quality.Label{Truth: truth, Family: fam})
		card.Observe(ctx, quality.Verdict{PID: pid, Probability: p, Flagged: p >= 0.6, Blocked: p >= 0.95})
	}

	// Incidents: a blocked process, an evicted one, an open one, a
	// candidate that never flags, and a device failure.
	win := func(pid int, call int64, p float64, a detect.Action) {
		incidents.Window(detect.WindowSample{
			PID: pid, Time: clk.Now(), CallIndex: call, Probability: p, Action: a,
			Job: call * 10, Device: fmt.Sprintf("csd-%03d", pid%2),
			QueueWait: 1500, Transfer: 90000, Compute: 88000,
			Truth: "ransomware", Family: "lockbit",
		})
	}
	win(7, 25, 0.2, detect.ActionNone)
	win(7, 50, 0.8, detect.ActionAlert)
	win(7, 75, 0.97, detect.ActionBlock)
	win(9, 25, 0.7, detect.ActionAlert)
	win(9, 50, 0.4, detect.ActionNone)
	win(11, 25, 0.1, detect.ActionNone)
	win(13, 25, 0.9, detect.ActionAlert)
	incidents.Evict(13)
	incidents.DeviceFailure("csd-002", "ecc-storm")

	// SLO: a 20% failure burst pages availability, and the recall
	// objective burns on the scorecard's misses.
	for i := 0; i < 100; i++ {
		evaluator.Outcome(i%5 != 0)
	}
	evaluator.Evaluate()
	// Closing flushes the sink, so its delivery counters are final.
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}

	return telemetry.NewHTTPHandler(reg, telemetry.HTTPOptions{Extra: map[string]http.Handler{
		"/events.json":    events.HTTPHandler(),
		"/incidents.json": incidents.HTTPHandler(),
		"/quality.json":   card.Handler(),
		"/slo.json":       evaluator.HTTPHandler(),
	}})
}

// TestEndpointGoldens pins the bodies of the observability JSON endpoints
// for one scripted scenario, scraped in a fixed order (/slo.json evaluates
// on every scrape, and /events.json carries everything emitted before it).
// Rewrite with -update.
func TestEndpointGoldens(t *testing.T) {
	h := observabilityHandler(t)
	for _, tc := range []struct{ target, golden string }{
		{"/quality.json", "quality.golden"},
		{"/incidents.json", "incidents.golden"},
		{"/incidents.json?state=open", "incidents-open.golden"},
		{"/incidents.json?state=closed", "incidents-closed.golden"},
		{"/slo.json", "slo.golden"},
		{"/events.json", "events.golden"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", tc.target, rec.Code, rec.Body)
		}
		path := filepath.Join("testdata", "endpoints", tc.golden)
		if flag.Lookup("update").Value.String() == "true" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET %s body differs from %s\n--- got ---\n%s--- want ---\n%s", tc.target, path, rec.Body, want)
		}
	}
}

// TestJSONEndpoints checks the serving contract every JSON endpoint
// shares: Content-Type application/json; GET and HEAD on the read-only
// documents and 405 with an Allow header on anything else; and a document
// ServeJSON cannot encode answers 500 with no partial body.
func TestJSONEndpoints(t *testing.T) {
	h := observabilityHandler(t)
	for _, tc := range []struct {
		method, target string
		want           int
	}{
		{http.MethodGet, "/quality.json", http.StatusOK},
		{http.MethodHead, "/quality.json", http.StatusOK},
		{http.MethodPost, "/quality.json", http.StatusMethodNotAllowed},
		{http.MethodGet, "/slo.json", http.StatusOK},
		{http.MethodHead, "/slo.json", http.StatusOK},
		{http.MethodPost, "/slo.json", http.StatusMethodNotAllowed},
		{http.MethodGet, "/incidents.json", http.StatusOK},
		{http.MethodGet, "/events.json", http.StatusOK},
		{http.MethodGet, "/spans.json", http.StatusOK},
		{http.MethodGet, "/metrics.json", http.StatusOK},
		{http.MethodGet, "/healthz", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, nil))
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.target, rec.Code, tc.want)
			continue
		}
		if tc.want == http.StatusMethodNotAllowed {
			if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow %q, want \"GET, HEAD\"", tc.method, tc.target, allow)
			}
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.target, ct)
		}
	}

	rec := httptest.NewRecorder()
	telemetry.ServeJSON(rec, http.StatusOK, map[string]float64{"psi": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN document served %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct == "application/json" || strings.Contains(rec.Body.String(), "{") {
		t.Fatalf("NaN document leaked a partial JSON body (%s): %q", ct, rec.Body)
	}
}
