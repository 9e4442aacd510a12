package incident

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
)

// itemPredictor classifies a window ransomware when its last item is at or
// above the hot threshold — a deterministic stand-in for the LSTM that lets
// tests script per-process verdicts through the call IDs they feed.
type itemPredictor struct {
	seqLen int
	hot    int
}

func (p *itemPredictor) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	prob := 0.1
	if seq[len(seq)-1] >= p.hot {
		prob = 0.9
	}
	return kernels.Result{Ransomware: prob >= 0.5, Probability: prob}, infer.Timing{}, nil
}

func (p *itemPredictor) PredictStored(ctx context.Context, off int64) (kernels.Result, infer.Timing, error) {
	return kernels.Result{}, infer.Timing{}, infer.ErrNoStoredData
}

func (p *itemPredictor) SeqLen() int { return p.seqLen }

func sample(pid int, call int64, prob float64, action detect.Action, job int64, device string) detect.WindowSample {
	return detect.WindowSample{
		PID: pid, Time: time.Unix(0, call), CallIndex: call,
		Probability: prob, Action: action, Job: job, Device: device,
		QueueWait: 10, Transfer: 20, Compute: 30,
	}
}

func TestLifecycleBlocked(t *testing.T) {
	gen := int64(3)
	rec, err := NewRecorder(Config{Generation: func() int64 { return gen }})
	if err != nil {
		t.Fatal(err)
	}
	rec.Window(sample(7, 10, 0.1, detect.ActionNone, 101, "0"))
	if rec.Total() != 0 || rec.Open() != 0 {
		t.Fatalf("benign window opened an incident: total=%d open=%d", rec.Total(), rec.Open())
	}
	rec.Window(sample(7, 35, 0.8, detect.ActionAlert, 102, "1"))
	if rec.Total() != 1 || rec.Open() != 1 {
		t.Fatalf("alert did not open an incident: total=%d open=%d", rec.Total(), rec.Open())
	}
	rec.Window(sample(7, 60, 0.95, detect.ActionBlock, 103, "0"))
	if rec.Open() != 0 {
		t.Fatalf("block left the incident open")
	}

	incs := rec.Snapshot()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1", len(incs))
	}
	inc := incs[0]
	if inc.ID != 1 || inc.PID != 7 || inc.State != "closed" || inc.CloseReason != "blocked" {
		t.Fatalf("unexpected incident: %+v", inc)
	}
	if inc.ModelGeneration != 3 {
		t.Fatalf("ModelGeneration = %d, want 3", inc.ModelGeneration)
	}
	if inc.WindowsTotal != 3 || inc.AlertsTotal != 2 || len(inc.Trajectory) != 3 {
		t.Fatalf("window accounting wrong: %+v", inc)
	}
	if inc.MaxProbability != 0.95 {
		t.Fatalf("MaxProbability = %v", inc.MaxProbability)
	}
	if inc.FirstSeen.UnixNano() != 10 || inc.FlaggedAt.UnixNano() != 35 || inc.BlockedAt.UnixNano() != 60 {
		t.Fatalf("timestamps wrong: %+v", inc)
	}
	if inc.ClosedAt.IsZero() {
		t.Fatal("ClosedAt not stamped")
	}
	wantJobs := []int64{101, 102, 103}
	if fmt.Sprint(inc.Jobs) != fmt.Sprint(wantJobs) {
		t.Fatalf("Jobs = %v, want %v", inc.Jobs, wantJobs)
	}
	if fmt.Sprint(inc.Devices) != fmt.Sprint([]string{"0", "1"}) {
		t.Fatalf("Devices = %v", inc.Devices)
	}
	if inc.QueueWaitTotal != 30 || inc.TransferTotal != 60 || inc.ComputeTotal != 90 {
		t.Fatalf("phase totals wrong: %+v", inc)
	}
	verdicts := []string{inc.Trajectory[0].Verdict, inc.Trajectory[1].Verdict, inc.Trajectory[2].Verdict}
	if fmt.Sprint(verdicts) != fmt.Sprint([]string{"none", "alert", "block"}) {
		t.Fatalf("trajectory verdicts = %v", verdicts)
	}
}

// TestOnOpenFiresOnEveryOpenPath pins the flight-recorder hook contract:
// OnOpen fires exactly once per opened incident — process flag, device
// failure, and SLO breach — with a deep copy carrying the incident ID.
func TestOnOpenFiresOnEveryOpenPath(t *testing.T) {
	var opened []Incident
	rec, err := NewRecorder(Config{OnOpen: func(inc Incident) { opened = append(opened, inc) }})
	if err != nil {
		t.Fatal(err)
	}
	rec.Window(sample(7, 10, 0.1, detect.ActionNone, 101, "0"))
	if len(opened) != 0 {
		t.Fatalf("benign window fired OnOpen: %+v", opened)
	}
	rec.Window(sample(7, 35, 0.8, detect.ActionAlert, 102, "1"))
	rec.Window(sample(7, 60, 0.9, detect.ActionAlert, 103, "1")) // same incident: no second fire
	rec.DeviceFailure("csd-002", "chaos")
	rec.SLOBreach("availability", "fast", "burn 20x")
	if len(opened) != 3 {
		t.Fatalf("OnOpen fired %d times, want 3 (flag, device, slo)", len(opened))
	}
	if opened[0].PID != 7 || opened[0].ID != 1 {
		t.Fatalf("flag open = %+v", opened[0])
	}
	if opened[1].Kind != "device" || opened[1].ID != 2 {
		t.Fatalf("device open = %+v", opened[1])
	}
	if opened[2].Kind != "slo" || opened[2].Objective != "availability" || opened[2].ID != 3 {
		t.Fatalf("slo open = %+v", opened[2])
	}
	// The callback got a copy: mutating it must not corrupt recorder state.
	opened[0].Trajectory = nil
	if rec.Open() != 1 {
		t.Fatalf("open incidents = %d, want the flagged process still open", rec.Open())
	}
}

func TestEvictClosesAndReflagOpensDistinctIncident(t *testing.T) {
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Window(sample(9, 1, 0.9, detect.ActionAlert, 1, "0"))
	rec.Evict(9)
	if rec.Open() != 0 {
		t.Fatal("eviction left the incident open")
	}
	// The PID reappears: a fresh epoch, a distinct incident.
	rec.Window(sample(9, 2, 0.7, detect.ActionAlert, 2, "1"))
	incs := rec.Snapshot()
	if len(incs) != 2 {
		t.Fatalf("got %d incidents, want 2", len(incs))
	}
	if incs[0].ID == incs[1].ID {
		t.Fatalf("reflag reused incident ID %d", incs[0].ID)
	}
	if incs[0].CloseReason != "evicted" || incs[0].State != "closed" {
		t.Fatalf("first incident: %+v", incs[0])
	}
	if incs[1].State != "open" || incs[1].WindowsTotal != 1 {
		t.Fatalf("second incident inherited state: %+v", incs[1])
	}
	// Evicting an unflagged candidate is silent.
	rec.Window(sample(11, 3, 0.1, detect.ActionNone, 3, "0"))
	rec.Evict(11)
	rec.Evict(12) // untracked PID: no-op
	if got := len(rec.Snapshot()); got != 2 {
		t.Fatalf("candidate eviction leaked an incident: %d", got)
	}
}

func TestFlushClosesOpenIncidents(t *testing.T) {
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Window(sample(1, 1, 0.9, detect.ActionAlert, 0, ""))
	rec.Window(sample(2, 2, 0.8, detect.ActionAlert, 0, ""))
	rec.Window(sample(3, 3, 0.1, detect.ActionNone, 0, ""))
	incs := rec.Flush()
	if len(incs) != 2 {
		t.Fatalf("got %d incidents, want 2", len(incs))
	}
	for _, inc := range incs {
		if inc.State != "closed" || inc.CloseReason != "flush" || inc.ClosedAt.IsZero() {
			t.Fatalf("flush did not close: %+v", inc)
		}
	}
	if rec.Open() != 0 || len(rec.Flush()) != 2 {
		t.Fatal("flush is not idempotent over history")
	}
}

func TestTrajectoryBounded(t *testing.T) {
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const windows = maxTrajectory + 6
	rec.Window(sample(5, 0, 0.9, detect.ActionAlert, 1, ""))
	for i := int64(1); i < windows; i++ {
		rec.Window(sample(5, i, 0.2, detect.ActionNone, i+1, ""))
	}
	inc := rec.Snapshot()[0]
	if len(inc.Trajectory) != maxTrajectory {
		t.Fatalf("trajectory len = %d, want %d", len(inc.Trajectory), maxTrajectory)
	}
	if inc.TrajectoryDropped != 6 {
		t.Fatalf("TrajectoryDropped = %d, want 6", inc.TrajectoryDropped)
	}
	if inc.WindowsTotal != windows {
		t.Fatalf("WindowsTotal = %d, want %d", inc.WindowsTotal, windows)
	}
	// Most recent windows retained, in order.
	if first, last := inc.Trajectory[0].CallIndex, inc.Trajectory[maxTrajectory-1].CallIndex; first != 6 || last != windows-1 {
		t.Fatalf("trajectory spans calls %d..%d, want 6..%d", first, last, windows-1)
	}
	// The job list shares the bound: the first maxTrajectory jobs.
	if len(inc.Jobs) != maxTrajectory || inc.Jobs[maxTrajectory-1] != maxTrajectory {
		t.Fatalf("jobs: %d retained, last %d", len(inc.Jobs), inc.Jobs[len(inc.Jobs)-1])
	}
}

// TestClosedRingBounded closes more incidents than the closed ring holds,
// through every closing path, and checks the ring keeps the newest
// maxClosed in close order while Total still counts them all.
func TestClosedRingBounded(t *testing.T) {
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = maxClosed + 10
	for i := 0; i < n; i++ {
		switch pid := i + 1; i % 3 {
		case 0:
			rec.Window(sample(pid, 1, 0.99, detect.ActionBlock, 0, ""))
		case 1:
			rec.DeviceFailure("csd-000", "simulated-fault")
		default:
			rec.SLOBreach("availability", "fast", "burn")
		}
	}
	incs := rec.Snapshot()
	if len(incs) != maxClosed || rec.Total() != n {
		t.Fatalf("retained %d of Total %d, want %d of %d", len(incs), rec.Total(), maxClosed, n)
	}
	for i, inc := range incs {
		if want := int64(n - maxClosed + i + 1); inc.ID != want || inc.State != "closed" {
			t.Fatalf("incident %d: id %d state %q, want id %d closed", i, inc.ID, inc.State, want)
		}
	}
}

// TestMuxChurnEviction drives a real detect.Mux whose process cap forces
// the ransomware process's detector state out and back in, asserting the
// recorder yields two distinct incidents for the two tracking epochs with
// no lost or duplicated windows.
func TestMuxChurnEviction(t *testing.T) {
	pred := &itemPredictor{seqLen: 4, hot: 1000}
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mux, err := detect.NewMux(pred, detect.MuxConfig{
		Detector: detect.Config{
			Stride:        1,
			AlertsToBlock: 100, // keep mitigation out of the way: churn is the subject
			OnWindow:      rec.Window,
		},
		OnEvict: rec.Evict,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	feed := func(pid, item, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := mux.Observe(ctx, pid, item); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Epoch 1: the hot process fills its window and alerts on 3 windows
	// (calls 4..6 complete windows ending in a hot item).
	feed(100, 1500, 6)
	if rec.Open() != 1 {
		t.Fatalf("open = %d, want 1", rec.Open())
	}
	// Benign processes churn the cap: PID 100 is now the idlest and is
	// evicted when the MaxProcesses-th of them arrives.
	for pid := 101; pid <= 100+detect.MaxProcesses; pid++ {
		feed(pid, 1, 4)
	}
	if open := rec.Open(); open != 0 {
		t.Fatalf("eviction did not close the incident: open = %d", open)
	}
	// Epoch 2: the hot process reappears (evicting 101), refills its
	// window from scratch, and alerts again.
	feed(100, 1500, 5)
	incs := rec.Snapshot()
	if len(incs) != 2 {
		t.Fatalf("got %d incidents, want 2: %+v", len(incs), incs)
	}
	first, second := incs[0], incs[1]
	if first.ID == second.ID {
		t.Fatal("epochs share an incident ID")
	}
	if first.PID != 100 || second.PID != 100 {
		t.Fatalf("PIDs: %d, %d", first.PID, second.PID)
	}
	if first.State != "closed" || first.CloseReason != "evicted" {
		t.Fatalf("first epoch: %+v", first)
	}
	if second.State != "open" {
		t.Fatalf("second epoch: %+v", second)
	}
	// No lost or duplicated windows: epoch 1 classified windows at calls
	// 4..6 (3 windows), epoch 2 refilled and classified at calls 4..5 of
	// its stream (2 windows).
	if first.WindowsTotal != 3 || len(first.Trajectory) != 3 {
		t.Fatalf("epoch 1 windows: %+v", first)
	}
	if second.WindowsTotal != 2 || len(second.Trajectory) != 2 {
		t.Fatalf("epoch 2 windows: %+v", second)
	}
	seen := map[int64]int{}
	for _, w := range append(append([]Window(nil), first.Trajectory...), second.Trajectory...) {
		seen[w.CallIndex]++
	}
	for idx, n := range seen {
		if n > 2 { // call indexes restart per epoch, so at most one per epoch
			t.Fatalf("call index %d appears %d times", idx, n)
		}
	}
}

// TestConcurrentWindows hammers the recorder from many goroutines — the
// shape of a multi-stream deployment where several Mux instances share one
// recorder — and checks nothing is lost (run with -race).
func TestConcurrentWindows(t *testing.T) {
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, windows = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < windows; i++ {
				act := detect.ActionNone
				if i == 50 {
					act = detect.ActionAlert
				}
				rec.Window(sample(pid, int64(i), 0.3, act, int64(pid*windows+i), "0"))
			}
		}(g + 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			rec.Snapshot()
			rec.Open()
		}
	}()
	wg.Wait()
	<-done
	if rec.Total() != goroutines {
		t.Fatalf("Total = %d, want %d", rec.Total(), goroutines)
	}
	for _, inc := range rec.Snapshot() {
		if inc.WindowsTotal != windows {
			t.Fatalf("pid %d lost windows: %d of %d", inc.PID, inc.WindowsTotal, windows)
		}
	}
}

func TestHTTPHandlerAndReports(t *testing.T) {
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Window(sample(1, 1, 0.9, detect.ActionAlert, 11, "0"))
	rec.Window(sample(1, 2, 0.95, detect.ActionBlock, 12, "0"))
	rec.Window(sample(2, 3, 0.8, detect.ActionAlert, 13, "1"))

	srv := httptest.NewServer(rec.HTTPHandler())
	defer srv.Close()
	var doc struct {
		Total     int64      `json:"total"`
		Open      int        `json:"open"`
		Incidents []Incident `json:"incidents"`
	}
	get := func(url string) {
		t.Helper()
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	get(srv.URL)
	if doc.Total != 2 || doc.Open != 1 || len(doc.Incidents) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	get(srv.URL + "?state=open")
	if len(doc.Incidents) != 1 || doc.Incidents[0].PID != 2 {
		t.Fatalf("open filter: %+v", doc.Incidents)
	}
	if resp, err := srv.Client().Get(srv.URL + "?state=bogus"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != 400 {
		t.Fatalf("bad state filter: status %d", resp.StatusCode)
	}

	// A nil recorder serves a valid empty document.
	var nilRec *Recorder
	nilSrv := httptest.NewServer(nilRec.HTTPHandler())
	defer nilSrv.Close()
	get(nilSrv.URL)
	if doc.Total != 0 || len(doc.Incidents) != 0 {
		t.Fatalf("nil recorder doc = %+v", doc)
	}

	dir := t.TempDir()
	n, err := rec.WriteReports(dir)
	if err != nil || n != 2 {
		t.Fatalf("WriteReports = %d, %v", n, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "incident-1-pid1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatal(err)
	}
	if inc.ID != 1 || inc.CloseReason != "blocked" || len(inc.Trajectory) != 2 {
		t.Fatalf("report round-trip: %+v", inc)
	}

	empty, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.WriteReports(dir); err != ErrNoIncidents {
		t.Fatalf("empty WriteReports err = %v", err)
	}
}

// TestHTTPOpenCountMatchesListed scrapes /incidents.json while windows
// open and block incidents concurrently, and checks every document's open
// count equals the number of open incidents it lists — the counts and the
// list come from one locked read.
func TestHTTPOpenCountMatchesListed(t *testing.T) {
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pid += writers
				rec.Window(sample(pid, 1, 0.9, detect.ActionAlert, 0, ""))
				rec.Window(sample(pid, 2, 0.99, detect.ActionBlock, 0, ""))
			}
		}(g + 1)
	}
	defer func() { close(stop); wg.Wait() }()
	h := rec.HTTPHandler()
	for scrape := 0; scrape < 2000; scrape++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/incidents.json?state=open", nil))
		var doc struct {
			Open      int        `json:"open"`
			Incidents []Incident `json:"incidents"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Open != len(doc.Incidents) {
			t.Fatalf("scrape %d: open = %d, but %d open incidents listed", scrape, doc.Open, len(doc.Incidents))
		}
	}
}
