package quality

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

func ransomCtx(family string) context.Context {
	return WithLabel(context.Background(), Label{Truth: true, Family: family})
}

func benignCtx() context.Context {
	return WithLabel(context.Background(), Label{Truth: false, Family: "benign"})
}

func TestScorecardConfusion(t *testing.T) {
	card, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 TP, 1 FN for lockbit; 2 TN, 1 FP for benign; 1 unlabeled.
	for i := 0; i < 3; i++ {
		card.Observe(ransomCtx("lockbit"), Verdict{PID: 1, Probability: 0.9, Flagged: true})
	}
	card.Observe(ransomCtx("lockbit"), Verdict{PID: 2, Probability: 0.3})
	card.Observe(benignCtx(), Verdict{PID: 3, Probability: 0.1})
	card.Observe(benignCtx(), Verdict{PID: 3, Probability: 0.2})
	card.Observe(benignCtx(), Verdict{PID: 4, Probability: 0.8, Flagged: true})
	card.Observe(context.Background(), Verdict{PID: 5, Probability: 0.5})

	q := card.Snapshot()
	if q.Windows != 8 || q.Labeled != 7 || q.Unlabeled != 1 {
		t.Errorf("windows=%d labeled=%d unlabeled=%d, want 8/7/1", q.Windows, q.Labeled, q.Unlabeled)
	}
	if q.Total.TP != 3 || q.Total.FN != 1 || q.Total.TN != 2 || q.Total.FP != 1 {
		t.Errorf("confusion %+v, want tp=3 fn=1 tn=2 fp=1", q.Total)
	}
	if q.Total.Recall != 0.75 {
		t.Errorf("recall %v, want 0.75", q.Total.Recall)
	}
	if q.Total.FPR != 1.0/3 {
		t.Errorf("fpr %v, want 1/3", q.Total.FPR)
	}
	var fams []string
	for _, f := range q.Families {
		fams = append(fams, f.Family)
	}
	if len(q.Families) != 2 || q.Families[0].Family != "benign" || q.Families[1].Family != "lockbit" {
		t.Errorf("families %v, want sorted [benign lockbit]", fams)
	}
	if q.Families[1].TP != 3 || q.Families[1].FN != 1 {
		t.Errorf("lockbit slice %+v, want tp=3 fn=1", q.Families[1].ConfusionSnapshot)
	}
}

// TestScorecardDetectionLatency pins windows-to-flag and bytes-at-risk: a
// ransomware process flagged on its 3rd window and blocked on its 4th
// contributes exactly those latencies.
func TestScorecardDetectionLatency(t *testing.T) {
	card, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ransomCtx("ryuk")
	card.Observe(ctx, Verdict{PID: 9, Probability: 0.2})
	card.Observe(ctx, Verdict{PID: 9, Probability: 0.3})
	card.Observe(ctx, Verdict{PID: 9, Probability: 0.9, Flagged: true})
	card.Observe(ctx, Verdict{PID: 9, Probability: 0.9, Flagged: true, Blocked: true})

	q := card.Snapshot()
	if q.WindowsToFlag.Count != 1 || q.WindowsToFlag.P50 != 3 {
		t.Errorf("windows-to-flag %+v, want one sample at 3", q.WindowsToFlag)
	}
	if q.BytesAtRisk.Count != 1 || q.BytesAtRisk.P50 != 4*BytesPerWindow {
		t.Errorf("bytes-at-risk %+v, want one sample at 4 windows x %d bytes", q.BytesAtRisk, BytesPerWindow)
	}
	if q.Processes.Tracked != 1 || q.Processes.Flagged != 1 || q.Processes.Blocked != 1 {
		t.Errorf("processes %+v, want 1/1/1", q.Processes)
	}
	// A benign false positive must not pollute the ransomware
	// detection-latency sample.
	card.Observe(benignCtx(), Verdict{PID: 10, Probability: 0.8, Flagged: true})
	if q = card.Snapshot(); q.WindowsToFlag.Count != 1 {
		t.Errorf("benign FP leaked into windows-to-flag (count %d)", q.WindowsToFlag.Count)
	}
}

// TestScorecardSLOHook pins that every labeled verdict reaches the SLO
// hook with (truth, flagged) intact, and unlabeled ones do not.
func TestScorecardSLOHook(t *testing.T) {
	type call struct{ truth, flagged bool }
	var calls []call
	card, err := New(Config{SLO: func(truth, flagged bool) {
		calls = append(calls, call{truth, flagged})
	}})
	if err != nil {
		t.Fatal(err)
	}
	card.Observe(ransomCtx("cerber"), Verdict{PID: 1, Probability: 0.9, Flagged: true})
	card.Observe(benignCtx(), Verdict{PID: 2, Probability: 0.1})
	card.Observe(context.Background(), Verdict{PID: 3, Probability: 0.5, Flagged: true})
	want := []call{{true, true}, {false, false}}
	if len(calls) != len(want) {
		t.Fatalf("SLO hook called %d times, want %d (unlabeled verdicts skipped)", len(calls), len(want))
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}
}

// TestScorecardFamilyFold pins the cardinality bound: families beyond
// MaxFamilies fold into FamilyOther instead of growing the map.
func TestScorecardFamilyFold(t *testing.T) {
	card, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < MaxFamilies+3; i++ {
		card.Observe(ransomCtx(fmt.Sprintf("fam%d", i)), Verdict{PID: i, Probability: 0.9, Flagged: true})
	}
	q := card.Snapshot()
	// MaxFamilies distinct families, then the map is full: every later
	// family folds to "other" (which itself takes one slot past the bound
	// via the fold path).
	var other *FamilySnapshot
	for i := range q.Families {
		if q.Families[i].Family == FamilyOther {
			other = &q.Families[i]
		}
	}
	if other == nil {
		t.Fatalf("no %q bucket in %+v", FamilyOther, q.Families)
	}
	if other.TP != 3 {
		t.Errorf("other bucket tp=%d, want the 3 folded families", other.TP)
	}
	if len(q.Families) != MaxFamilies+1 {
		t.Errorf("%d family buckets, want %d (%d + other)", len(q.Families), MaxFamilies+1, MaxFamilies)
	}
}

// TestScorecardProcessCap pins the PID bound: new processes beyond
// MaxProcesses still score into the confusion matrix but their latency
// tracking is dropped and counted.
func TestScorecardProcessCap(t *testing.T) {
	card, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const pids = MaxProcesses + 3
	for pid := 1; pid <= pids; pid++ {
		card.Observe(ransomCtx("virlock"), Verdict{PID: pid, Probability: 0.9, Flagged: true})
	}
	q := card.Snapshot()
	if q.Total.TP != pids {
		t.Errorf("tp=%d, want all %d windows scored despite the PID cap", q.Total.TP, pids)
	}
	if q.Processes.Tracked != MaxProcesses || q.Processes.Dropped != 3 {
		t.Errorf("processes %+v, want %d tracked / 3 dropped", q.Processes, MaxProcesses)
	}
	if q.WindowsToFlag.Count != MaxProcesses {
		t.Errorf("windows-to-flag count %d, want only the %d tracked PIDs", q.WindowsToFlag.Count, MaxProcesses)
	}
}

// TestScorecardNilInert pins the stack-wide convention: a nil *Scorecard
// absorbs every call and snapshots to the zeroed document.
func TestScorecardNilInert(t *testing.T) {
	var card *Scorecard
	card.Observe(ransomCtx("locky"), Verdict{PID: 1, Probability: 0.9, Flagged: true})
	q := card.Snapshot()
	if q.Windows != 0 {
		t.Errorf("nil scorecard counted %d windows", q.Windows)
	}
	if q.Families == nil || len(q.ScoreBins) != ScoreBins {
		t.Errorf("nil snapshot families=%v bins=%d, want empty slice and %d bins", q.Families, len(q.ScoreBins), ScoreBins)
	}
}

// TestScorecardZeroStateJSON pins the /quality.json zero state: no null
// anywhere a consumer would iterate.
func TestScorecardZeroStateJSON(t *testing.T) {
	card, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Scorecard{card, nil} {
		raw, err := json.Marshal(c.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), "null") {
			t.Errorf("zero-state snapshot serializes null: %s", raw)
		}
		var back Snapshot
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back.Families == nil || len(back.ScoreBins) != ScoreBins {
			t.Errorf("zero state families=%v bins=%d, want [] and %d bins", back.Families, len(back.ScoreBins), ScoreBins)
		}
	}
}

// TestScorecardDriftEvents drives the live distribution away from a pinned
// reference and pins the detected -> cleared event edges.
func TestScorecardDriftEvents(t *testing.T) {
	low := make([]float64, ScoreBins)
	low[1] = 1 // reference: all scores near 0.15
	events := eventlog.New(eventlog.Config{})
	card, err := New(Config{
		Events:    events,
		Reference: &Reference{Name: "low", Samples: 100, Bins: low},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := benignCtx()
	// Phase 1: live matches the reference past the low-count guard — no
	// drift.
	for i := 0; i < MinDriftSamples; i++ {
		card.Observe(ctx, Verdict{PID: 1, Probability: 0.15})
	}
	if q := card.Snapshot(); q.Drift.Drifted || q.Drift.LowCount {
		t.Fatalf("drift %+v after matching traffic, want stable", q.Drift)
	}
	// Phase 2: flood the top bin until the mix crosses the PSI threshold.
	for i := 0; i < 200; i++ {
		card.Observe(ctx, Verdict{PID: 1, Probability: 0.95, Flagged: true})
	}
	q := card.Snapshot()
	if !q.Drift.Drifted || q.Drift.PSI <= q.Drift.Threshold {
		t.Fatalf("drift %+v after a distribution flip, want drifted", q.Drift)
	}
	var detected bool
	for _, e := range events.Recent() {
		if e.Name == EventDriftDetected && e.Component == Component {
			detected = true
		}
	}
	if !detected {
		t.Errorf("no %s event in the stream", EventDriftDetected)
	}
}

// TestScorecardLowCountGuard pins that drift is never declared before
// MinDriftSamples live scores, however alien the early traffic looks.
func TestScorecardLowCountGuard(t *testing.T) {
	low := make([]float64, ScoreBins)
	low[0] = 1
	card, err := New(Config{Reference: &Reference{Name: "low", Samples: 100, Bins: low}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < MinDriftSamples-1; i++ {
		card.Observe(benignCtx(), Verdict{PID: 1, Probability: 0.99, Flagged: true})
	}
	q := card.Snapshot()
	if !q.Drift.LowCount || q.Drift.Drifted {
		t.Errorf("drift %+v one sample short of %d, want low-count guard holding", q.Drift, MinDriftSamples)
	}
	card.Observe(benignCtx(), Verdict{PID: 1, Probability: 0.99, Flagged: true})
	if q = card.Snapshot(); q.Drift.LowCount || !q.Drift.Drifted {
		t.Errorf("drift %+v at %d samples, want the guard lifted and drift declared", q.Drift, MinDriftSamples)
	}
}

func TestScorecardTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	card, err := New(Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	card.Observe(ransomCtx("chimera"), Verdict{PID: 1, Probability: 0.9, Flagged: true})
	card.Observe(context.Background(), Verdict{PID: 2, Probability: 0.5})
	want := map[string]bool{
		"quality_windows_total":   false,
		"quality_unlabeled_total": false,
		"quality_verdicts_total":  false,
		"quality_windows_to_flag": false,
	}
	for _, m := range reg.Snapshot() {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("series %s missing from the registry", name)
		}
	}
}

func TestScorecardHandler(t *testing.T) {
	card, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	card.Observe(ransomCtx("wannacry"), Verdict{PID: 1, Probability: 0.9, Flagged: true})
	srv := httptest.NewServer(card.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var q Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Total.TP != 1 {
		t.Errorf("served snapshot %+v, want tp=1", q.Total)
	}

	post, err := srv.Client().Post(srv.URL+"/", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", post.StatusCode)
	}

	// A nil scorecard still serves the zeroed document.
	var nilCard *Scorecard
	nilSrv := httptest.NewServer(nilCard.Handler())
	defer nilSrv.Close()
	nilResp, err := nilSrv.Client().Get(nilSrv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer nilResp.Body.Close()
	var zero Snapshot
	if err := json.NewDecoder(nilResp.Body).Decode(&zero); err != nil {
		t.Fatal(err)
	}
	if zero.Windows != 0 || len(zero.ScoreBins) != ScoreBins {
		t.Errorf("nil handler served %+v", zero)
	}
}

// TestScorecardConcurrent hammers one scorecard from 64 goroutines mixing
// observes and snapshots — the -race pin for the locking discipline. The
// final bookkeeping must still be exact.
func TestScorecardConcurrent(t *testing.T) {
	reg := telemetry.NewRegistry()
	events := eventlog.New(eventlog.Config{})
	low := make([]float64, ScoreBins)
	low[1] = 1
	card, err := New(Config{
		Telemetry: reg,
		Events:    events,
		Reference: &Reference{Name: "low", Samples: 100, Bins: low},
		SLO:       func(truth, flagged bool) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	const callers, perCaller = 64, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			truth := g%2 == 0
			ctx := benignCtx()
			p := 0.15
			if truth {
				ctx = ransomCtx("teslacrypt")
				p = 0.95
			}
			for i := 0; i < perCaller; i++ {
				card.Observe(ctx, Verdict{PID: g, Probability: p, Flagged: truth})
				if i%50 == 0 {
					_ = card.Snapshot()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent observers deadlocked")
	}
	q := card.Snapshot()
	half := int64(callers / 2 * perCaller)
	if q.Windows != callers*perCaller {
		t.Errorf("windows %d, want %d", q.Windows, callers*perCaller)
	}
	if int64(q.Total.TP) != half || int64(q.Total.TN) != half || q.Total.FP != 0 || q.Total.FN != 0 {
		t.Errorf("confusion %+v, want tp=tn=%d fp=fn=0", q.Total, half)
	}
	if q.Processes.Tracked != callers {
		t.Errorf("tracked %d, want %d", q.Processes.Tracked, callers)
	}
}
