package slo

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// fakeClock is a hand-advanced clock shared by the evaluator and its
// collaborators.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time                    { return c.now }
func (c *fakeClock) Advance(d time.Duration) time.Time { c.now = c.now.Add(d); return c.now }

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindAvailability: "availability",
		KindLatency:      "latency",
		KindDetection:    "detection",
		Kind(42):         "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestObjectiveValidation(t *testing.T) {
	bad := []Objective{
		{Target: 0.9},                                  // no name
		{Name: "x", Target: 0},                         // target at 0
		{Name: "x", Target: 1},                         // target at 1
		{Name: "x", Target: 0.9, Kind: KindLatency},    // no threshold
		{Name: "x", Target: 0.9, Kind: KindDetection},  // no max windows
		{Name: "x", Target: 0.9, Window: -time.Second}, // negative window
	}
	for i, o := range bad {
		if _, err := NewEvaluator(Config{Objectives: []Objective{o}}); err == nil {
			t.Errorf("case %d: NewEvaluator accepted invalid objective %+v", i, o)
		}
	}
	if _, err := NewEvaluator(Config{}); err == nil {
		t.Error("NewEvaluator accepted empty objective list")
	}
	dup := []Objective{
		{Name: "x", Target: 0.9},
		{Name: "x", Target: 0.99},
	}
	if _, err := NewEvaluator(Config{Objectives: dup}); err == nil {
		t.Error("NewEvaluator accepted duplicate objective names")
	}
}

func TestDefaultRulesScale(t *testing.T) {
	rules := DefaultRules(time.Hour)
	if len(rules) != 2 {
		t.Fatalf("DefaultRules returned %d rules, want 2", len(rules))
	}
	fast, slow := rules[0], rules[1]
	if !fast.Page || fast.Burn != 14.4 || fast.Long != 6*time.Minute || fast.Short != 30*time.Second {
		t.Errorf("fast rule = %+v, want paging 14.4x over 6m/30s", fast)
	}
	if slow.Page || slow.Burn != 6 || slow.Long != 30*time.Minute || slow.Short != 150*time.Second {
		t.Errorf("slow rule = %+v, want warning 6x over 30m/2m30s", slow)
	}
	if got := DefaultRules(0)[0].Long; got != 6*time.Minute {
		t.Errorf("DefaultRules(0) fast long = %v, want one-hour default scaling", got)
	}
}

func TestAvailabilityAttainmentAndBudget(t *testing.T) {
	clk := newFakeClock()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{{
			Name: "availability", Kind: KindAvailability,
			Target: 0.99, Window: time.Hour,
		}},
		Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 995 good / 5 bad = 99.5% attainment; budget is 1%, half spent.
	for i := 0; i < 995; i++ {
		e.Outcome(true)
	}
	for i := 0; i < 5; i++ {
		e.Outcome(false)
	}
	st := e.Evaluate()
	if len(st.Objectives) != 1 {
		t.Fatalf("got %d objectives, want 1", len(st.Objectives))
	}
	o := st.Objectives[0]
	if o.Good != 995 || o.Bad != 5 || o.WindowGood != 995 || o.WindowBad != 5 {
		t.Errorf("counts = %d/%d window %d/%d, want 995/5", o.Good, o.Bad, o.WindowGood, o.WindowBad)
	}
	if math.Abs(o.Attainment-0.995) > 1e-9 {
		t.Errorf("attainment = %v, want 0.995", o.Attainment)
	}
	if math.Abs(o.BudgetRemaining-0.5) > 1e-9 {
		t.Errorf("budget remaining = %v, want 0.5", o.BudgetRemaining)
	}
	if !o.Met {
		t.Error("objective should be met at 99.5% against a 99% target")
	}

	// An empty window (the ring slid past all events) means no violations.
	clk.Advance(2 * time.Hour)
	o = e.Evaluate().Objectives[0]
	if o.WindowGood != 0 || o.WindowBad != 0 {
		t.Errorf("window counts after slide = %d/%d, want 0/0", o.WindowGood, o.WindowBad)
	}
	if o.Attainment != 1 || o.BudgetRemaining != 1 {
		t.Errorf("idle window: attainment %v budget %v, want 1/1", o.Attainment, o.BudgetRemaining)
	}
	if o.Good != 995 || o.Bad != 5 {
		t.Errorf("lifetime counts changed after slide: %d/%d", o.Good, o.Bad)
	}
}

func TestLatencyObjectiveThreshold(t *testing.T) {
	clk := newFakeClock()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{{
			Name: "latency-2ms", Kind: KindLatency,
			Target: 0.5, Threshold: 2 * time.Millisecond, Window: time.Minute,
		}},
		Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Latency(time.Millisecond, true)      // good: fast and ok
	e.Latency(2*time.Millisecond, true)    // good: exactly at threshold
	e.Latency(5*time.Millisecond, true)    // bad: too slow
	e.Latency(500*time.Microsecond, false) // bad: fast but errored
	o := e.Evaluate().Objectives[0]
	if o.Good != 2 || o.Bad != 2 {
		t.Errorf("latency counts = %d/%d, want 2/2", o.Good, o.Bad)
	}
	if o.ThresholdSeconds != 0.002 {
		t.Errorf("threshold_s = %v, want 0.002", o.ThresholdSeconds)
	}
}

func TestDetectionObjectiveWindows(t *testing.T) {
	clk := newFakeClock()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{{
			Name: "detect-3w", Kind: KindDetection,
			Target: 0.5, MaxWindows: 3, Window: time.Minute,
		}},
		Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Detection(1)  // good
	e.Detection(3)  // good: at the bound
	e.Detection(4)  // bad: too slow
	e.Detection(-1) // bad: never flagged
	o := e.Evaluate().Objectives[0]
	if o.Good != 2 || o.Bad != 2 {
		t.Errorf("detection counts = %d/%d, want 2/2", o.Good, o.Bad)
	}
	if o.MaxWindows != 3 {
		t.Errorf("max_windows = %d, want 3", o.MaxWindows)
	}
}

// TestQualityObjectives pins the scorecard feedback loop: ransomware
// verdicts burn recall objectives (good iff flagged), benign verdicts burn
// false-positive objectives (good iff not flagged), and each kind only
// sees its own class.
func TestQualityObjectives(t *testing.T) {
	clk := newFakeClock()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{
			{Name: "recall", Kind: KindRecall, Target: 0.5, Window: time.Minute},
			{Name: "fp", Kind: KindFalsePositive, Target: 0.5, Window: time.Minute},
		},
		Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Quality(true, true)   // ransomware caught: recall good
	e.Quality(true, false)  // ransomware missed: recall bad
	e.Quality(false, false) // benign passed: fp good
	e.Quality(false, true)  // benign flagged: fp bad
	e.Quality(false, false) // benign passed: fp good
	for _, o := range e.Evaluate().Objectives {
		switch o.Name {
		case "recall":
			if o.Good != 1 || o.Bad != 1 {
				t.Errorf("recall counts = %d/%d, want 1/1 (benign verdicts excluded)", o.Good, o.Bad)
			}
		case "fp":
			if o.Good != 2 || o.Bad != 1 {
				t.Errorf("fp counts = %d/%d, want 2/1 (ransomware verdicts excluded)", o.Good, o.Bad)
			}
		}
	}
	// The method value is safe on a nil evaluator — quality.Config.SLO can
	// be wired unconditionally.
	var nilEval *Evaluator
	nilEval.Quality(true, false)
}

// TestQualityScorecardFeedback wires a real detection-quality scorecard to
// the evaluator, as csdload does: labelled verdicts observed by the
// scorecard burn the recall and false-positive objectives.
func TestQualityScorecardFeedback(t *testing.T) {
	clk := newFakeClock()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{
			{Name: "recall", Kind: KindRecall, Target: 0.5, Window: time.Minute},
			{Name: "fp", Kind: KindFalsePositive, Target: 0.5, Window: time.Minute},
		},
		Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	card, err := quality.New(quality.Config{SLO: e.Quality})
	if err != nil {
		t.Fatal(err)
	}
	ransom := quality.WithLabel(context.Background(), quality.Label{Truth: true, Family: "LockBit"})
	card.Observe(ransom, quality.Verdict{PID: 1, Probability: 0.9, Flagged: true})
	benign := quality.WithLabel(context.Background(), quality.Label{Family: "benign"})
	card.Observe(benign, quality.Verdict{PID: 2, Probability: 0.1})

	if snap := card.Snapshot(); snap.Total.TP != 1 || snap.Total.TN != 1 {
		t.Fatalf("confusion %+v, want tp=1 tn=1", snap.Total)
	}
	for _, o := range e.Evaluate().Objectives {
		if o.Good != 1 || o.Bad != 0 {
			t.Errorf("objective %s counts %d/%d, want 1/0", o.Name, o.Good, o.Bad)
		}
	}
}

// TestBurnAlertLifecycle drives an availability objective through a burst of
// failures and checks the full alert lifecycle: both burn rules fire, the
// paging rule opens an incident, slo.* events land in the stream, and the
// alerts resolve once the burn windows slide past the burst.
func TestBurnAlertLifecycle(t *testing.T) {
	clk := newFakeClock()
	events := eventlog.New(eventlog.Config{Clock: clk.Now})
	incidents, err := incident.NewRecorder(incident.Config{Clock: clk.Now, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{{
			Name: "availability", Kind: KindAvailability,
			Target: 0.99, Window: time.Hour,
		}},
		Telemetry: reg,
		Events:    events,
		Incidents: incidents,
		Clock:     clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 20% failures burn the 1% budget at 20x — over both the fast rule's
	// windows (6m/30s) and the slow rule's (30m/2m30s), since all events
	// land in the current bucket.
	for i := 0; i < 80; i++ {
		e.Outcome(true)
	}
	for i := 0; i < 20; i++ {
		e.Outcome(false)
	}
	st := e.Evaluate()
	o := st.Objectives[0]
	if len(o.Burns) != 2 {
		t.Fatalf("got %d burn statuses, want 2", len(o.Burns))
	}
	for _, b := range o.Burns {
		if !b.Firing {
			t.Errorf("rule %q not firing at 20x burn (long %.1f short %.1f)", b.Rule, b.BurnLong, b.BurnShort)
		}
		if math.Abs(b.BurnLong-20) > 1e-9 || math.Abs(b.BurnShort-20) > 1e-9 {
			t.Errorf("rule %q burn = %.2f/%.2f, want 20/20", b.Rule, b.BurnLong, b.BurnShort)
		}
	}
	if o.BudgetRemaining > -18.9 { // 1 - 0.2/0.01 = -19
		t.Errorf("budget remaining = %v, want about -19", o.BudgetRemaining)
	}
	if st.IncidentsOpened != 1 {
		t.Errorf("incidents opened = %d, want 1 (only the paging rule opens incidents)", st.IncidentsOpened)
	}
	if len(st.Alerts) != 2 {
		t.Fatalf("alert log has %d transitions, want 2 firings", len(st.Alerts))
	}
	var pagingInc int64
	for _, a := range st.Alerts {
		if a.State != "firing" {
			t.Errorf("transition %+v, want state firing", a)
		}
		if a.Rule == "fast" {
			pagingInc = a.IncidentID
		}
	}
	if pagingInc == 0 {
		t.Error("fast-rule firing carries no incident ID")
	}

	// The incident recorder holds a closed Kind "slo" incident naming the
	// objective.
	var found bool
	for _, inc := range incidents.Snapshot() {
		if inc.Kind == "slo" && inc.Objective == "availability" && inc.ID == pagingInc {
			found = true
			if inc.CloseReason != "slo-breach" {
				t.Errorf("incident close reason = %q, want slo-breach", inc.CloseReason)
			}
		}
	}
	if !found {
		t.Error("no slo incident recorded for the availability objective")
	}

	// The event stream carries the burn alert and the budget-exhausted edge.
	var sawAlert, sawExhausted, sawBreach bool
	for _, ev := range events.Recent() {
		switch ev.Name {
		case EventBurnAlert:
			sawAlert = true
			if ev.Component != "slo" {
				t.Errorf("burn alert component = %q, want slo", ev.Component)
			}
		case EventBudgetExhausted:
			sawExhausted = true
		case "incident.slo_breach":
			sawBreach = true
		}
	}
	if !sawAlert || !sawExhausted || !sawBreach {
		t.Errorf("event stream: alert=%v exhausted=%v breach=%v, want all true",
			sawAlert, sawExhausted, sawBreach)
	}

	// A second evaluation is edge-triggered: no duplicate transitions.
	st = e.Evaluate()
	if len(st.Alerts) != 2 || st.IncidentsOpened != 1 {
		t.Errorf("re-evaluation added transitions: %d alerts, %d incidents",
			len(st.Alerts), st.IncidentsOpened)
	}

	// Slide past every burn window (slow long = 30m) but stay inside the
	// objective window: alerts resolve, the budget stays exhausted.
	clk.Advance(31 * time.Minute)
	st = e.Evaluate()
	o = st.Objectives[0]
	for _, b := range o.Burns {
		if b.Firing {
			t.Errorf("rule %q still firing after the burst left its windows", b.Rule)
		}
	}
	if o.BudgetRemaining > 0 {
		t.Errorf("budget recovered too early: %v", o.BudgetRemaining)
	}
	if len(st.Alerts) != 4 {
		t.Errorf("alert log has %d transitions, want 2 firings + 2 resolves", len(st.Alerts))
	}

	// Slide past the objective window: the budget recovers and says so.
	clk.Advance(time.Hour)
	o = e.Evaluate().Objectives[0]
	if o.BudgetRemaining != 1 {
		t.Errorf("budget after full slide = %v, want 1", o.BudgetRemaining)
	}
	var sawRecovered, sawResolve bool
	for _, ev := range events.Recent() {
		switch ev.Name {
		case EventBudgetRecovered:
			sawRecovered = true
		case EventBurnResolve:
			sawResolve = true
		}
	}
	if !sawRecovered || !sawResolve {
		t.Errorf("event stream: recovered=%v resolve=%v, want both", sawRecovered, sawResolve)
	}

	// Telemetry mirrors the judgment.
	var sawBudgetGauge bool
	for _, m := range reg.Snapshot() {
		if m.Name == "slo_budget_remaining_permille" {
			sawBudgetGauge = true
			if m.Value != 1000 {
				t.Errorf("budget gauge = %d permille, want 1000", m.Value)
			}
		}
	}
	if !sawBudgetGauge {
		t.Error("slo_budget_remaining_permille not in registry snapshot")
	}
}

// TestPageRecordsOneIncident pins paging: each firing edge of a paging
// rule records exactly one SLO-breach incident for the objective (not on
// re-evaluation, not for non-paging rules), the transition carries its ID,
// and the recorder's OnOpen hook, which serves the page, sees it once.
func TestPageRecordsOneIncident(t *testing.T) {
	clk := newFakeClock()
	var pages []incident.Incident
	incidents, err := incident.NewRecorder(incident.Config{
		Clock:  clk.Now,
		OnOpen: func(inc incident.Incident) { pages = append(pages, inc) },
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(Config{
		Objectives: []Objective{{
			Name: "availability", Kind: KindAvailability,
			Target: 0.99, Window: time.Hour,
		}},
		Incidents: incidents,
		Clock:     clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	burst := func() Status {
		for i := 0; i < 80; i++ {
			e.Outcome(true)
		}
		for i := 0; i < 20; i++ {
			e.Outcome(false)
		}
		e.Evaluate()
		return e.Evaluate() // edge-triggered: no duplicate page
	}
	st := burst()
	if len(pages) != 1 {
		t.Fatalf("%d incidents paged, want 1 (only the paging rule, only the edge)", len(pages))
	}
	if inc := pages[0]; inc.Kind != "slo" || inc.Objective != "availability" || inc.CloseReason != "slo-breach" {
		t.Fatalf("paged incident = %+v", inc)
	}
	for _, a := range st.Alerts {
		want := int64(0) // only the paging rule records an incident
		if a.Rule == "fast" {
			want = pages[0].ID
		}
		if a.IncidentID != want {
			t.Errorf("%s transition carries incident %d, want %d", a.Rule, a.IncidentID, want)
		}
	}

	// Resolve, then page again: the second edge records a second incident.
	clk.Advance(time.Hour + time.Minute)
	e.Evaluate()
	burst()
	if len(pages) != 2 || pages[1].ID == pages[0].ID {
		t.Fatalf("second paging edge: incidents %+v", pages)
	}
	if incs := incidents.Snapshot(); len(incs) != 2 || incs[1].ID != pages[1].ID {
		t.Fatalf("recorder holds %+v, want the two paged incidents", incs)
	}
}

// TestAlertLogBounded drives more transitions than the alert log holds and
// checks it keeps the newest maxAlerts, oldest first.
func TestAlertLogBounded(t *testing.T) {
	clk := newFakeClock()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{{
			Name: "availability", Kind: KindAvailability,
			Target: 0.99, Window: time.Hour,
		}},
		Rules: []Rule{{Name: "fast", Burn: 14.4, Long: time.Minute, Short: 10 * time.Second}},
		Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Alternate bursts and quiet periods: each cycle fires and resolves.
	const cycles = maxAlerts/2 + 2
	var thirdFiring time.Time
	for cycle := 0; cycle < cycles; cycle++ {
		for i := 0; i < 10; i++ {
			e.Outcome(false)
		}
		if cycle == 2 {
			thirdFiring = clk.now
		}
		e.Evaluate() // firing
		clk.Advance(2 * time.Minute)
		e.Evaluate() // resolved
	}
	st := e.Evaluate()
	if len(st.Alerts) != maxAlerts {
		t.Fatalf("alert log has %d entries, want the %d most recent", len(st.Alerts), maxAlerts)
	}
	if first, last := st.Alerts[0], st.Alerts[maxAlerts-1]; first.State != "firing" || !first.Time.Equal(thirdFiring) || last.State != "resolved" {
		t.Fatalf("alert log spans %+v .. %+v, want the third cycle's firing first", first, last)
	}
}

func TestHTTPHandler(t *testing.T) {
	clk := newFakeClock()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{{
			Name: "availability", Kind: KindAvailability,
			Target: 0.999, Window: time.Minute,
		}},
		Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Outcome(true)
	e.Outcome(false)

	srv := httptest.NewServer(e.HTTPHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/slo.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /slo.json = %d, want 200", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Objectives) != 1 || st.Objectives[0].Name != "availability" {
		t.Fatalf("decoded status = %+v, want one availability objective", st)
	}
	if st.Objectives[0].WindowBad != 1 {
		t.Errorf("window bad = %d, want 1", st.Objectives[0].WindowBad)
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST /slo.json = %d, want 405", post.StatusCode)
	}
}

func TestNilCollaboratorsSafe(t *testing.T) {
	clk := newFakeClock()
	e, err := NewEvaluator(Config{
		Objectives: []Objective{{
			Name: "availability", Kind: KindAvailability,
			Target: 0.9, Window: time.Minute,
		}},
		Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Burn hard with nil Events/Incidents/Telemetry: must not panic.
	for i := 0; i < 50; i++ {
		e.Outcome(false)
	}
	st := e.Evaluate()
	if st.IncidentsOpened != 0 {
		t.Errorf("incidents opened with nil recorder = %d, want 0", st.IncidentsOpened)
	}
	var firing bool
	for _, b := range st.Objectives[0].Burns {
		firing = firing || b.Firing
	}
	if !firing {
		t.Error("no rule firing at 100% failure rate")
	}
}
