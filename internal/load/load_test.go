package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/serve"
	"github.com/kfrida1/csdinf/internal/slo"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// stubTarget is a hermetic Target whose failure mode is flipped by chaos
// steps.
type stubTarget struct {
	seqLen  int
	delay   time.Duration
	failing atomic.Bool
}

var errInjected = errors.New("stub: injected fault")

func (s *stubTarget) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if s.failing.Load() {
		return kernels.Result{}, infer.Timing{}, errInjected
	}
	return kernels.Result{}, infer.Timing{}, nil
}

func (s *stubTarget) SeqLen() int { return s.seqLen }

func TestConfigValidation(t *testing.T) {
	tgt := &stubTarget{seqLen: 4}
	bad := []Config{
		{Rate: 100, Duration: time.Second},                                    // no target
		{Target: tgt, Duration: time.Second},                                  // no rate
		{Target: tgt, Rate: 100},                                              // no duration
		{Target: tgt, Rate: 100, Duration: time.Second, Warmup: time.Second},  // warmup == duration
		{Target: tgt, Rate: 100, Duration: time.Second, Arrivals: "constant"}, // unknown process
		{Target: tgt, Rate: 100, Duration: time.Second, PIDs: -1},             // negative pids
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config %+v", i, cfg)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	tgt := &stubTarget{seqLen: 8}
	for _, arrivals := range []string{ArrivalsPoisson, ArrivalsBursty} {
		cfg := Config{Target: tgt, Arrivals: arrivals, Rate: 2000, Duration: time.Second, Seed: 1}
		n1, d1, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n2, d2, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 || d1 != d2 {
			t.Errorf("%s: same seed diverged: %d/%s vs %d/%s", arrivals, n1, d1, n2, d2)
		}
		if n1 == 0 {
			t.Errorf("%s: empty schedule at 2000 req/s over 1s", arrivals)
		}
		// A 2000/s process over 1s should land within a factor of two of
		// its mean count — a loose bound that still catches unit slips.
		if n1 < 1000 || n1 > 4000 {
			t.Errorf("%s: %d arrivals, want about 2000", arrivals, n1)
		}
		cfg.Seed = 2
		_, d3, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d3 == d1 {
			t.Errorf("%s: different seeds produced identical digest %s", arrivals, d1)
		}
	}
}

func TestRunHealthyTarget(t *testing.T) {
	tgt := &stubTarget{seqLen: 8}
	ev, err := slo.NewEvaluator(slo.Config{
		Objectives: []slo.Objective{
			{Name: "availability", Kind: slo.KindAvailability, Target: 0.999, Window: 300 * time.Millisecond},
			// The threshold is deliberately enormous: latency is measured
			// from intended arrival, and on a CI box running the whole suite
			// in parallel the dispatcher's timers can fire tens of
			// milliseconds late. The objective pins the accounting (every
			// request good → budget untouched), not scheduler luck.
			{Name: "latency", Kind: slo.KindLatency, Target: 0.99,
				Threshold: 10 * time.Second, Window: 300 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := eventlog.New(eventlog.Config{})
	res, err := Run(context.Background(), Config{
		Target:    tgt,
		Rate:      2000,
		Duration:  300 * time.Millisecond,
		Warmup:    50 * time.Millisecond,
		Seed:      7,
		Evaluator: ev,
		Events:    events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Succeeded != res.Requests {
		t.Errorf("requests %d succeeded %d, want all measured requests to succeed", res.Requests, res.Succeeded)
	}
	if res.Warmup == 0 {
		t.Error("no warmup requests recorded with a 50ms warmup")
	}
	if res.Requests+res.Warmup != res.Scheduled {
		t.Errorf("measured %d + warmup %d != scheduled %d", res.Requests, res.Warmup, res.Scheduled)
	}
	if res.SLO == nil {
		t.Fatal("no SLO status in result")
	}
	for _, o := range res.SLO.Objectives {
		if !o.Met {
			t.Errorf("objective %s violated on a healthy instant target: attainment %v", o.Name, o.Attainment)
		}
		if o.BudgetRemaining != 1 {
			t.Errorf("objective %s budget %v, want untouched 1.0", o.Name, o.BudgetRemaining)
		}
	}
	if res.Latency.Count != res.Requests {
		t.Errorf("latency count %d != measured %d", res.Latency.Count, res.Requests)
	}
	var sawStart, sawDone bool
	for _, e := range events.Recent() {
		sawStart = sawStart || e.Name == EventRunStart
		sawDone = sawDone || e.Name == EventRunDone
	}
	if !sawStart || !sawDone {
		t.Errorf("event stream: start=%v done=%v, want both", sawStart, sawDone)
	}
}

func TestRunReportRenders(t *testing.T) {
	tgt := &stubTarget{seqLen: 4}
	res, err := Run(context.Background(), Config{
		Target: tgt, Rate: 500, Duration: 100 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 {
		t.Error("empty text report")
	}
	path := filepath.Join(t.TempDir(), "slo-report.json")
	if err := telemetry.WriteJSONFile(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.ScheduleDigest != res.ScheduleDigest {
		t.Error("digest lost in JSON round-trip")
	}
}

// TestSLOEndToEnd follows one burn-rate alert end to end: a chaos step
// deliberately violates the availability objective mid-run, the evaluator's
// fast-burn rule fires, the firing shows up in the slo.* event stream, an
// incident auto-opens in the recorder, and /slo.json serves the transition.
func TestSLOEndToEnd(t *testing.T) {
	clkEvents := eventlog.New(eventlog.Config{})
	incidents, err := incident.NewRecorder(incident.Config{Events: clkEvents})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := slo.NewEvaluator(slo.Config{
		Objectives: []slo.Objective{{
			Name: "availability", Kind: slo.KindAvailability,
			Target: 0.99, Window: 600 * time.Millisecond,
		}},
		Events:    clkEvents,
		Incidents: incidents,
	})
	if err != nil {
		t.Fatal(err)
	}

	tgt := &stubTarget{seqLen: 8}
	res, err := Run(context.Background(), Config{
		Target:      tgt,
		Rate:        3000,
		Duration:    600 * time.Millisecond,
		Seed:        11,
		Evaluator:   ev,
		Events:      clkEvents,
		SampleEvery: 25 * time.Millisecond,
		Chaos: []ChaosStep{
			{At: 200 * time.Millisecond, Name: "inject-fault", Do: func(context.Context) error {
				tgt.failing.Store(true)
				return nil
			}},
			{At: 450 * time.Millisecond, Name: "clear-fault", Do: func(context.Context) error {
				tgt.failing.Store(false)
				return nil
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The report shows the violation and the chaos steps.
	if res.SLO == nil {
		t.Fatal("no SLO status")
	}
	obj := res.SLO.Objectives[0]
	if obj.Met {
		t.Errorf("availability met at %v despite a 250ms full outage in a 600ms window", obj.Attainment)
	}
	if obj.BudgetRemaining > 0 {
		t.Errorf("budget remaining %v, want exhausted (negative)", obj.BudgetRemaining)
	}
	if len(res.Chaos) != 2 {
		t.Errorf("chaos results = %d, want 2", len(res.Chaos))
	}
	if len(res.Timeline) == 0 {
		t.Error("no burn-rate timeline sampled")
	}

	// 1. Burn-rate evaluation: the paging fast rule fired and the
	//    transition log carries an incident ID.
	var pagingIncident int64
	for _, a := range res.SLO.Alerts {
		if a.Objective == "availability" && a.Rule == "fast" && a.State == "firing" {
			pagingIncident = a.IncidentID
		}
	}
	if pagingIncident == 0 {
		t.Fatalf("no firing fast-rule transition with an incident in %+v", res.SLO.Alerts)
	}

	// 2. The event stream carries the alert and the chaos steps.
	var sawAlert, sawChaos, sawBreachEvent bool
	for _, e := range clkEvents.Recent() {
		switch e.Name {
		case slo.EventBurnAlert:
			sawAlert = true
		case EventChaosStep:
			sawChaos = true
		case "incident.slo_breach":
			sawBreachEvent = true
		}
	}
	if !sawAlert || !sawChaos || !sawBreachEvent {
		t.Errorf("event stream: alert=%v chaos=%v breach=%v, want all", sawAlert, sawChaos, sawBreachEvent)
	}

	// 3. The incident report holds the auto-opened SLO breach.
	var found bool
	for _, inc := range incidents.Snapshot() {
		if inc.ID == pagingIncident {
			found = true
			if inc.Kind != "slo" || inc.Objective != "availability" || inc.CloseReason != "slo-breach" {
				t.Errorf("incident %+v, want Kind slo / Objective availability / slo-breach", inc)
			}
		}
	}
	if !found {
		t.Errorf("incident #%d not in recorder snapshot", pagingIncident)
	}

	// 4. /slo.json serves the same judgment.
	srv := httptest.NewServer(ev.HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/slo.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status slo.Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	var served bool
	for _, a := range status.Alerts {
		if a.IncidentID == pagingIncident {
			served = true
		}
	}
	if !served {
		t.Errorf("/slo.json alert log %+v does not carry incident #%d", status.Alerts, pagingIncident)
	}
	if status.IncidentsOpened == 0 {
		t.Error("/slo.json reports zero incidents opened")
	}
}

// TestTenantPropagation pins that each dispatched request carries its
// synthetic PID's tenant key, which is what spreads load across the fleet's
// placement ring.
func TestTenantPropagation(t *testing.T) {
	var tenants atomic.Int64
	tgt := &tenantProbe{seqLen: 4, seen: &tenants}
	if _, err := Run(context.Background(), Config{
		Target: tgt, Rate: 500, Duration: 100 * time.Millisecond, Seed: 5, PIDs: 16,
	}); err != nil {
		t.Fatal(err)
	}
	if tenants.Load() == 0 {
		t.Error("no request carried a tenant key")
	}
}

type tenantProbe struct {
	seqLen int
	seen   *atomic.Int64
}

func (p *tenantProbe) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	if infer.TenantFrom(ctx) != "" {
		p.seen.Add(1)
	}
	return kernels.Result{}, infer.Timing{}, nil
}

func (p *tenantProbe) SeqLen() int { return p.seqLen }

// TestReasonClassifiesFleetErrors: the report's failure breakdown names
// the errors a fleet returns, including a full-rack blackout, which must
// read no-ready-device rather than other.
func TestReasonClassifiesFleetErrors(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{fleet.ErrNoReadyDevice, "no-ready-device"},
		{fmt.Errorf("fleet: request re-placement failed: %w", fleet.ErrNoReadyDevice), "no-ready-device"},
		{fleet.ErrClosed, "closed"},
		{serve.ErrQueueFull, "queue-full"},
		{errInjected, "other"},
	} {
		if got := reason(tc.err); got != tc.want {
			t.Errorf("reason(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
