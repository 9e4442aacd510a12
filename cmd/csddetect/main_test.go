package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/sandbox"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
	"github.com/kfrida1/csdinf/internal/train"
)

// testWeights quick-trains a small model once per package run and keeps
// its exported weights. Training is seeded, so every test sees the same
// bytes it would see training its own copy.
var testWeights = sync.OnceValues(func() ([]byte, error) {
	ds, err := dataset.Build(dataset.BuildConfig{
		RansomwareCount: 456, BenignCount: 465, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	trainDS, testDS, err := ds.Split(0.2, 2)
	if err != nil {
		return nil, err
	}
	res, err := train.Train(trainDS, testDS, train.Config{
		Epochs: 8, Seed: 3, TargetAccuracy: 0.95,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.Model.WriteText(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
})

// trainedWeights writes the package's quick-trained model into the test's
// temp dir for the CLI.
func trainedWeights(t *testing.T) string {
	t.Helper()
	data, err := testWeights()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDetectEndToEnd(t *testing.T) {
	weights := trainedWeights(t)
	err := run([]string{
		"-weights", weights,
		"-family", "Lockbit", "-variant", "1",
		"-benign-calls", "300", "-infected-calls", "1500",
	})
	if err != nil {
		t.Fatalf("detection run failed: %v", err)
	}
}

func TestDetectWithMetricsEndpoint(t *testing.T) {
	weights := trainedWeights(t)
	err := run([]string{
		"-weights", weights,
		"-family", "Lockbit", "-variant", "1",
		"-benign-calls", "300", "-infected-calls", "1500",
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("detection run with metrics endpoint failed: %v", err)
	}
}

// TestForensicsEndToEnd drives the CLI's full pipeline on a synthetic
// ransomware sequence and follows one flagged process across the whole
// observability stack: the incident report must carry the confidence
// trajectory, the live model generation, the serving-device attribution,
// and trace job IDs that resolve in both the Chrome trace export and
// /spans.json.
func TestForensicsEndToEnd(t *testing.T) {
	model, err := loadOrTrain(trainedWeights(t), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(256)
	tracer := trace.New()
	events := eventlog.New(eventlog.Config{MinLevel: eventlog.LevelDebug})
	eventsPath := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := eventlog.NewFileSink(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	events.Attach("file", sink)

	p, err := buildPipeline(pipelineConfig{
		model: model, threshold: 0.5,
		reg: reg, spans: spans, tracer: tracer, events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	benign := sandbox.ManualInteractionProfile()
	benignTrace, err := benign.Generate(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	benignCtx := quality.WithLabel(context.Background(), benign.Label())
	if err := replay(benignCtx, p.mux, benignPID, benignTrace, false); err != nil {
		t.Fatal(err)
	}
	prof, err := sandbox.RansomwareProfile("Lockbit", 1)
	if err != nil {
		t.Fatal(err)
	}
	infected, err := prof.Generate(1500, 2)
	if err != nil {
		t.Fatal(err)
	}
	ransomCtx := quality.WithLabel(context.Background(), prof.Label())
	if err := replay(ransomCtx, p.mux, ransomPID, infected, false); err != nil {
		t.Fatal(err)
	}
	blocked, pid := p.mux.Blocked()
	if !blocked || pid != ransomPID {
		t.Fatalf("mitigation: blocked=%v pid=%d, want pid %d", blocked, pid, ransomPID)
	}

	// The incident report: the ransomware process's tracking epoch, closed
	// by the block.
	p.rec.Flush()
	dir := t.TempDir()
	if _, err := p.rec.WriteReports(dir); err != nil {
		t.Fatal(err)
	}
	reports, err := filepath.Glob(filepath.Join(dir, "incident-*-pid*.json"))
	if err != nil || len(reports) == 0 {
		t.Fatalf("no incident reports written: %v", err)
	}
	var inc incident.Incident
	found := false
	for _, path := range reports {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &inc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if inc.PID == ransomPID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no incident report for pid %d in %v", ransomPID, reports)
	}
	if inc.State != "closed" || inc.CloseReason != "blocked" {
		t.Fatalf("incident not closed by mitigation: %+v", inc)
	}

	// Ground truth rode the replay context through detect into the
	// forensic report.
	if inc.Truth != "ransomware" || inc.Family != "lockbit" {
		t.Fatalf("incident truth/family = %q/%q, want ransomware/lockbit", inc.Truth, inc.Family)
	}

	// Confidence trajectory: window-by-window verdicts ending in the block,
	// with the alerting windows above threshold.
	if len(inc.Trajectory) == 0 {
		t.Fatal("incident has no trajectory")
	}
	last := inc.Trajectory[len(inc.Trajectory)-1]
	if last.Verdict != "block" || last.Probability < 0.5 {
		t.Fatalf("trajectory tail = %+v", last)
	}
	if inc.FlaggedAt.IsZero() || inc.FirstSeen.After(inc.FlaggedAt) {
		t.Fatalf("timestamps: first_seen=%v flagged_at=%v", inc.FirstSeen, inc.FlaggedAt)
	}

	// Model generation from the cti hot-swap wrapper (initial deployment).
	if inc.ModelGeneration != p.hot.Generation() || inc.ModelGeneration != 1 {
		t.Fatalf("model_generation = %d, want %d", inc.ModelGeneration, p.hot.Generation())
	}

	// Serving-device and queue-wait attribution: the one-device demo serves
	// everything on registry device "csd-000".
	if len(inc.Devices) != 1 || inc.Devices[0] != "csd-000" {
		t.Fatalf("devices = %v, want [csd-000]", inc.Devices)
	}
	if last.Device != "csd-000" {
		t.Fatalf("trajectory tail device = %q", last.Device)
	}
	if inc.QueueWaitTotal <= 0 {
		t.Fatalf("queue wait attribution missing: %v", inc.QueueWaitTotal)
	}

	// Cross-layer correlation: the block window's job ID must appear in the
	// trace export and in /spans.json.
	job := last.Job
	if job == 0 {
		t.Fatal("trajectory tail has no trace job ID")
	}
	foundJob := false
	for _, j := range inc.Jobs {
		if j == job {
			foundJob = true
		}
	}
	if !foundJob {
		t.Fatalf("job %d missing from incident jobs %v", job, inc.Jobs)
	}
	inTrace := false
	for _, ev := range tracer.Events() {
		if ev.Job == job {
			inTrace = true
			break
		}
	}
	if !inTrace {
		t.Fatalf("job %d has no device timeline events", job)
	}
	var chrome bytes.Buffer
	if err := tracer.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"job": `) {
		t.Fatal("trace export carries no job annotations")
	}

	srv := httptest.NewServer(telemetry.NewHTTPHandler(reg, telemetry.HTTPOptions{Spans: spans, Extra: map[string]http.Handler{
		"/events.json":    events.HTTPHandler(),
		"/incidents.json": p.rec.HTTPHandler(),
		"/quality.json":   p.quality.Handler(),
	}}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/spans.json")
	if err != nil {
		t.Fatal(err)
	}
	var spansDoc struct {
		Spans []telemetry.Span `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&spansDoc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	inSpans := false
	for _, sp := range spansDoc.Spans {
		if sp.ID == job {
			inSpans = true
			if sp.Device != "csd-000" {
				t.Fatalf("span %d device = %q", job, sp.Device)
			}
		}
	}
	if !inSpans {
		t.Fatalf("job %d not in /spans.json (%d spans retained)", job, len(spansDoc.Spans))
	}

	// /incidents.json serves the same incident the report file holds.
	resp, err = http.Get(srv.URL + "/incidents.json")
	if err != nil {
		t.Fatal(err)
	}
	var incDoc struct {
		Incidents []incident.Incident `json:"incidents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&incDoc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	foundHTTP := false
	for _, got := range incDoc.Incidents {
		if got.ID == inc.ID && got.PID == ransomPID {
			foundHTTP = true
		}
	}
	if !foundHTTP {
		t.Fatalf("incident %d missing from /incidents.json", inc.ID)
	}

	// /quality.json: the scorecard graded every labeled window; the
	// infected process must register as a true positive and the detector
	// must have flagged at least one of its windows.
	resp, err = http.Get(srv.URL + "/quality.json")
	if err != nil {
		t.Fatal(err)
	}
	var qDoc quality.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&qDoc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if qDoc.Total.TP == 0 {
		t.Fatalf("/quality.json confusion has no true positives: %+v", qDoc.Total)
	}
	if qDoc.Unlabeled != 0 {
		t.Fatalf("%d windows unlabeled despite stamped contexts", qDoc.Unlabeled)
	}
	if qDoc.Labeled != qDoc.Windows {
		t.Fatalf("labeled %d of %d windows", qDoc.Labeled, qDoc.Windows)
	}
	foundFam := false
	for _, f := range qDoc.Families {
		if f.Family == "lockbit" && f.TP > 0 {
			foundFam = true
		}
	}
	if !foundFam {
		t.Fatalf("no lockbit true positives in per-family breakdown: %+v", qDoc.Families)
	}
	if qDoc.WindowsToFlag.Count == 0 || qDoc.WindowsToFlag.P50 <= 0 {
		t.Fatalf("windows-to-flag latency untracked: %+v", qDoc.WindowsToFlag)
	}

	// The JSON-lines event stream records the story with the same job ID,
	// and names the one drive by its registry ID on every layer (engine
	// deploy, CSD transfers, scheduler, registry).
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sawBlock, sawOpen, sawJob bool
	var deviceEvents int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("event line invalid JSON: %v", err)
		}
		if dev, ok := m["device"]; ok {
			deviceEvents++
			if dev != "csd-000" {
				t.Errorf("event %v names device %q, want csd-000", m["event"], dev)
			}
		}
		switch m["event"] {
		case "mitigation.block":
			sawBlock = true
		case "incident.open":
			sawOpen = true
		}
		if j, ok := m["job"].(float64); ok && int64(j) == job {
			sawJob = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawBlock || !sawOpen || !sawJob || deviceEvents == 0 {
		t.Fatalf("event stream incomplete: block=%v open=%v job=%v device events=%d",
			sawBlock, sawOpen, sawJob, deviceEvents)
	}
}

func TestDetectWithEventsAndIncidents(t *testing.T) {
	weights := trainedWeights(t)
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.jsonl")
	incidentDir := filepath.Join(dir, "incidents")
	err := run([]string{
		"-weights", weights,
		"-family", "Lockbit", "-variant", "1",
		"-benign-calls", "300", "-infected-calls", "1500",
		"-events", eventsPath,
		"-incident-dir", incidentDir,
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"event":"mitigation.block"`) {
		t.Error("events file missing mitigation.block")
	}
	reports, err := filepath.Glob(filepath.Join(incidentDir, "incident-*.json"))
	if err != nil || len(reports) == 0 {
		t.Fatalf("no incident reports in %s: %v", incidentDir, err)
	}
}

func TestDetectErrors(t *testing.T) {
	weights := trainedWeights(t)
	if err := run([]string{"-weights", "/nonexistent.txt"}); err == nil {
		t.Error("missing weights accepted")
	}
	if err := run([]string{"-weights", weights, "-family", "NotAFamily"}); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestDetectFleetDevices pins the -devices flag: the same detection run
// succeeds over a multi-device fleet, every drive comes from the registry
// ("csd-000"...), the infected process's windows all land on one device
// (per-process placement), and the quarantine engages rack-wide.
func TestDetectFleetDevices(t *testing.T) {
	model, err := loadOrTrain(trainedWeights(t), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	events := eventlog.New(eventlog.Config{})
	defer events.Close()
	p, err := buildPipeline(pipelineConfig{
		model: model, threshold: 0.5, devices: 3,
		reg: reg, events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	benign, err := sandbox.ManualInteractionProfile().Generate(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(context.Background(), p.mux, benignPID, benign, false); err != nil {
		t.Fatal(err)
	}
	prof, err := sandbox.RansomwareProfile("Lockbit", 1)
	if err != nil {
		t.Fatal(err)
	}
	infected, err := prof.Generate(1500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(context.Background(), p.mux, ransomPID, infected, false); err != nil {
		t.Fatal(err)
	}
	if blocked, pid := p.mux.Blocked(); !blocked || pid != ransomPID {
		t.Fatalf("blocked=%v pid=%d, want blocked on pid %d", blocked, pid, ransomPID)
	}

	// Registry-provisioned devices, stats in ID order.
	stats := p.fl.Stats()
	if len(stats) != 3 {
		t.Fatalf("fleet nodes = %d, want 3", len(stats))
	}
	for i, st := range stats {
		if want := []string{"csd-000", "csd-001", "csd-002"}[i]; st.Serve.ID != want {
			t.Fatalf("node %d ID = %q, want %q", i, st.Serve.ID, want)
		}
	}

	// Per-process placement: each flagged process's incident names exactly
	// one serving device.
	incidents := p.rec.Flush()
	if len(incidents) == 0 {
		t.Fatal("no incidents recorded")
	}
	for _, inc := range incidents {
		if inc.PID == ransomPID && len(inc.Devices) != 1 {
			t.Fatalf("infected process served by %v, want exactly one device", inc.Devices)
		}
	}

	// Rack-wide quarantine: every drive rejects writes.
	for i := 0; i < p.fl.Nodes(); i++ {
		if _, err := p.fl.Device(i).SSD().Write(0, []byte("x")); err == nil {
			t.Fatalf("device %d accepted a write after mitigation", i)
		}
	}
}
