package slo

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Event names emitted by the evaluator, named so the eventname analyzer can
// pin the vocabulary.
const (
	// EventBurnAlert fires on the inactive → firing edge of a burn rule
	// (error level for paging rules, warn otherwise).
	EventBurnAlert = "slo.burn.alert"
	// EventBurnResolve fires when a firing rule's burn drops back under
	// threshold.
	EventBurnResolve = "slo.burn.resolve"
	// EventBudgetExhausted fires once when an objective's windowed error
	// budget reaches zero.
	EventBudgetExhausted = "slo.budget.exhausted"
	// EventBudgetRecovered fires when an exhausted budget becomes positive
	// again as the window slides.
	EventBudgetRecovered = "slo.budget.recovered"
)

// maxAlerts bounds the retained alert transition log.
const maxAlerts = 256

// Config controls an Evaluator.
type Config struct {
	// Objectives are the SLOs to track; at least one is required.
	Objectives []Objective
	// Rules are the burn-rate alert rules applied to every objective; nil
	// defaults to DefaultRules scaled to each objective's window. Long
	// windows are clamped to the objective window, short windows to the
	// bucket resolution: window/360 per objective, clamped to [1ms, 10s].
	Rules []Rule
	// Telemetry, when non-nil, receives slo_good_total / slo_bad_total /
	// slo_budget_remaining_permille / slo_alerts_total, labeled by
	// objective (and rule, for alerts).
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives the slo.* event stream.
	Events *eventlog.Logger
	// Incidents, when non-nil, receives one SLO-breach incident per firing
	// of a paging rule; its incident.Config.OnOpen hook serves each page.
	Incidents *incident.Recorder
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// bucket is one resolution slice of an objective's rolling window.
type bucket struct {
	good, bad int64
}

// alertState tracks one (objective, rule) alert.
type alertState struct {
	rule    Rule
	firing  bool
	firings int64
}

// objState is one objective's runtime state.
type objState struct {
	obj Objective
	res time.Duration
	// ring covers [headStart - (len-1)*res, headStart + res); head is the
	// bucket currently receiving events.
	ring      []bucket
	head      int
	headStart time.Time

	totalGood, totalBad int64
	alerts              []alertState
	exhausted           bool

	goodC   *telemetry.Counter
	badC    *telemetry.Counter
	budgetG *telemetry.Gauge
}

// AlertTransition is one entry of the evaluator's alert log: a burn rule
// firing or resolving.
type AlertTransition struct {
	Time      time.Time `json:"time"`
	Objective string    `json:"objective"`
	Rule      string    `json:"rule"`
	// State is "firing" or "resolved".
	State string `json:"state"`
	// BurnLong and BurnShort are the burn rates over the rule's windows at
	// transition time.
	BurnLong  float64 `json:"burn_long"`
	BurnShort float64 `json:"burn_short"`
	// IncidentID is the SLO-breach incident opened for a paging firing; 0
	// otherwise.
	IncidentID int64 `json:"incident_id,omitempty"`
}

// Evaluator ingests good/bad events per objective and judges attainment,
// budget, and burn on demand. A nil *Evaluator is valid everywhere and
// records nothing, matching the optional-instrumentation convention of
// telemetry and eventlog.
type Evaluator struct {
	cfg Config

	mu     sync.Mutex
	objs   []*objState
	log    telemetry.Ring[AlertTransition]
	opened int64
}

// NewEvaluator builds an evaluator over the configured objectives.
func NewEvaluator(cfg Config) (*Evaluator, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives configured")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	e := &Evaluator{cfg: cfg, log: telemetry.NewRing[AlertTransition](maxAlerts)}
	now := cfg.Clock()
	seen := make(map[string]bool, len(cfg.Objectives))
	for i := range cfg.Objectives {
		obj := cfg.Objectives[i]
		if err := obj.validate(); err != nil {
			return nil, err
		}
		if seen[obj.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", obj.Name)
		}
		seen[obj.Name] = true
		res := min(max(obj.Window/360, time.Millisecond), 10*time.Second)
		n := int(obj.Window / res)
		if n < 1 {
			n = 1
		}
		rules := cfg.Rules
		if rules == nil {
			rules = DefaultRules(obj.Window)
		}
		name := obj.Name
		st := &objState{
			obj: obj, res: res,
			ring:      make([]bucket, n),
			headStart: now.Truncate(res),
			goodC: cfg.Telemetry.Counter("slo_good_total",
				"Events meeting the objective.", telemetry.L("objective", name)),
			badC: cfg.Telemetry.Counter("slo_bad_total",
				"Events violating the objective.", telemetry.L("objective", name)),
			budgetG: cfg.Telemetry.Gauge("slo_budget_remaining_permille",
				"Windowed error budget remaining, in permille (may go negative).",
				telemetry.L("objective", name)),
		}
		st.budgetG.Set(1000)
		for _, r := range rules {
			if r.Burn <= 0 || r.Long <= 0 || r.Short <= 0 {
				return nil, fmt.Errorf("slo: rule %q needs positive burn and windows", r.Name)
			}
			if r.Long > obj.Window {
				r.Long = obj.Window
			}
			if r.Short < res {
				r.Short = res
			}
			st.alerts = append(st.alerts, alertState{rule: r})
		}
		e.objs = append(e.objs, st)
	}
	return e, nil
}

// advance rotates the ring so st.headStart covers now. Caller holds e.mu.
func (st *objState) advance(now time.Time) {
	steps := 0
	for !now.Before(st.headStart.Add(st.res)) {
		st.head = (st.head + 1) % len(st.ring)
		st.ring[st.head] = bucket{}
		st.headStart = st.headStart.Add(st.res)
		if steps++; steps >= len(st.ring) {
			// Idle longer than the whole window: clear everything and
			// re-anchor instead of looping bucket by bucket.
			for i := range st.ring {
				st.ring[i] = bucket{}
			}
			st.headStart = now.Truncate(st.res)
			return
		}
	}
}

// record adds one event to the objective's current bucket.
func (st *objState) record(now time.Time, good bool) {
	st.advance(now)
	if good {
		st.ring[st.head].good++
		st.totalGood++
		st.goodC.Inc()
	} else {
		st.ring[st.head].bad++
		st.totalBad++
		st.badC.Inc()
	}
}

// windowSum totals the buckets covering the trailing duration d.
func (st *objState) windowSum(d time.Duration) (good, bad int64) {
	k := int((d + st.res - 1) / st.res)
	if k < 1 {
		k = 1
	}
	if k > len(st.ring) {
		k = len(st.ring)
	}
	for i := 0; i < k; i++ {
		b := st.ring[(st.head-i+len(st.ring))%len(st.ring)]
		good += b.good
		bad += b.bad
	}
	return good, bad
}

// badRatio is the fraction of bad events over the trailing duration d
// (zero when the window saw no events).
func (st *objState) badRatio(d time.Duration) float64 {
	good, bad := st.windowSum(d)
	if good+bad == 0 {
		return 0
	}
	return float64(bad) / float64(good+bad)
}

// Latency records one request outcome into every latency objective: good
// when the request succeeded within the objective's threshold. Measure d
// from the request's *intended* start so queueing and scheduling delay
// count (coordinated-omission safety is the recorder's contract).
func (e *Evaluator) Latency(d time.Duration, ok bool) {
	e.record(KindLatency, func(o Objective) bool { return ok && d <= o.Threshold })
}

// Outcome records one request outcome into every availability objective.
func (e *Evaluator) Outcome(ok bool) {
	e.record(KindAvailability, func(Objective) bool { return ok })
}

// Detection records one flagged process into every detection objective:
// good when the detector needed at most MaxWindows classified windows.
// Pass a negative count for a process that was never flagged.
func (e *Evaluator) Detection(windows int) {
	e.record(KindDetection, func(o Objective) bool {
		return windows >= 0 && windows <= o.MaxWindows
	})
}

// Quality records one ground-truth-labeled window verdict: ransomware
// windows feed recall objectives (good when flagged), benign windows feed
// false-positive objectives (good when not flagged). Wire this method
// value to quality.Config.SLO — the scorecard calls it for every labeled
// verdict. Safe as a method value on a nil evaluator.
func (e *Evaluator) Quality(truth, flagged bool) {
	if truth {
		e.record(KindRecall, func(Objective) bool { return flagged })
		return
	}
	e.record(KindFalsePositive, func(Objective) bool { return !flagged })
}

func (e *Evaluator) record(kind Kind, good func(Objective) bool) {
	if e == nil {
		return
	}
	now := e.cfg.Clock()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.objs {
		if st.obj.Kind == kind {
			st.record(now, good(st.obj))
		}
	}
}

// BurnStatus is one rule's judgment inside an ObjectiveStatus.
type BurnStatus struct {
	Rule string `json:"rule"`
	// Threshold is the rule's burn-rate threshold.
	Threshold float64 `json:"threshold"`
	// LongSeconds and ShortSeconds are the evaluated window lengths.
	LongSeconds  float64 `json:"long_s"`
	ShortSeconds float64 `json:"short_s"`
	// BurnLong and BurnShort are the current burn rates (1.0 = consuming
	// exactly the budget over the objective window).
	BurnLong  float64 `json:"burn_long"`
	BurnShort float64 `json:"burn_short"`
	// Firing reports whether the alert is currently active.
	Firing bool `json:"firing"`
	// Firings counts inactive → firing transitions so far.
	Firings int64 `json:"firings"`
	// Page marks the rule as incident-opening.
	Page bool `json:"page,omitempty"`
}

// ObjectiveStatus is one objective's judgment at evaluation time.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Kind        string  `json:"kind"`
	Target      float64 `json:"target"`
	// ThresholdSeconds / MaxWindows echo the kind-specific good bound.
	ThresholdSeconds float64 `json:"threshold_s,omitempty"`
	MaxWindows       int     `json:"max_windows,omitempty"`
	WindowSeconds    float64 `json:"window_s"`
	// Good and Bad are lifetime event counts; WindowGood and WindowBad
	// cover the rolling objective window.
	Good       int64 `json:"good"`
	Bad        int64 `json:"bad"`
	WindowGood int64 `json:"window_good"`
	WindowBad  int64 `json:"window_bad"`
	// Attainment is the windowed good fraction (1 when the window is
	// empty — no events means no violations).
	Attainment float64 `json:"attainment"`
	// BudgetRemaining is the fraction of the windowed error budget left;
	// negative once overspent.
	BudgetRemaining float64 `json:"budget_remaining"`
	// Met reports Attainment >= Target.
	Met   bool         `json:"met"`
	Burns []BurnStatus `json:"burn_rates"`
}

// Status is one evaluation pass over every objective.
type Status struct {
	Time       time.Time         `json:"time"`
	Objectives []ObjectiveStatus `json:"objectives"`
	// Alerts is the retained alert transition log, oldest first.
	Alerts []AlertTransition `json:"alerts,omitempty"`
	// IncidentsOpened counts SLO-breach incidents opened so far.
	IncidentsOpened int64 `json:"incidents_opened"`
}

// Evaluate advances every objective to the current clock, updates alert
// state (emitting slo.* events and opening incidents on edges), and returns
// the full judgment. Call it periodically — from a load generator's sample
// tick, or lazily from the /slo.json handler.
func (e *Evaluator) Evaluate() Status {
	if e == nil {
		return Status{}
	}
	now := e.cfg.Clock()
	type firedAlert struct {
		objective string
		rule      Rule
		burnLong  float64
		burnShort float64
		firing    bool
		budget    float64
	}
	type budgetEdge struct {
		objective string
		exhausted bool
		remaining float64
	}
	var fired []firedAlert
	var budgets []budgetEdge

	e.mu.Lock()
	st := Status{Time: now, Objectives: make([]ObjectiveStatus, 0, len(e.objs))}
	for _, o := range e.objs {
		o.advance(now)
		budget := 1 - o.obj.Target
		wGood, wBad := o.windowSum(o.obj.Window)
		attain := 1.0
		if wGood+wBad > 0 {
			attain = float64(wGood) / float64(wGood+wBad)
		}
		remaining := 1 - (1-attain)/budget
		o.budgetG.Set(int64(remaining * 1000))
		if remaining <= 0 && !o.exhausted {
			o.exhausted = true
			budgets = append(budgets, budgetEdge{o.obj.Name, true, remaining})
		} else if remaining > 0 && o.exhausted {
			o.exhausted = false
			budgets = append(budgets, budgetEdge{o.obj.Name, false, remaining})
		}
		os := ObjectiveStatus{
			Name:            o.obj.Name,
			Description:     o.obj.Description,
			Kind:            o.obj.Kind.String(),
			Target:          o.obj.Target,
			WindowSeconds:   o.obj.Window.Seconds(),
			Good:            o.totalGood,
			Bad:             o.totalBad,
			WindowGood:      wGood,
			WindowBad:       wBad,
			Attainment:      attain,
			BudgetRemaining: remaining,
			Met:             attain >= o.obj.Target,
		}
		if o.obj.Kind == KindLatency {
			os.ThresholdSeconds = o.obj.Threshold.Seconds()
		}
		if o.obj.Kind == KindDetection {
			os.MaxWindows = o.obj.MaxWindows
		}
		for i := range o.alerts {
			a := &o.alerts[i]
			burnLong := o.badRatio(a.rule.Long) / budget
			burnShort := o.badRatio(a.rule.Short) / budget
			firing := burnLong >= a.rule.Burn && burnShort >= a.rule.Burn
			if firing != a.firing {
				a.firing = firing
				if firing {
					a.firings++
				}
				fired = append(fired, firedAlert{
					objective: o.obj.Name, rule: a.rule,
					burnLong: burnLong, burnShort: burnShort,
					firing: firing, budget: remaining,
				})
			}
			os.Burns = append(os.Burns, BurnStatus{
				Rule: a.rule.Name, Threshold: a.rule.Burn,
				LongSeconds: a.rule.Long.Seconds(), ShortSeconds: a.rule.Short.Seconds(),
				BurnLong: burnLong, BurnShort: burnShort,
				Firing: firing, Firings: a.firings, Page: a.rule.Page,
			})
		}
		st.Objectives = append(st.Objectives, os)
	}
	e.mu.Unlock()

	// Emit edges outside the lock: event sinks and the incident recorder
	// take their own locks.
	ctx := context.Background()
	for _, b := range budgets {
		if b.exhausted {
			e.cfg.Events.Error(ctx, "slo", EventBudgetExhausted,
				eventlog.F("objective", b.objective),
				eventlog.F("budget_remaining", b.remaining))
		} else {
			e.cfg.Events.Info(ctx, "slo", EventBudgetRecovered,
				eventlog.F("objective", b.objective),
				eventlog.F("budget_remaining", b.remaining))
		}
	}
	for _, f := range fired {
		tr := AlertTransition{
			Time: now, Objective: f.objective, Rule: f.rule.Name,
			BurnLong: f.burnLong, BurnShort: f.burnShort,
		}
		if f.firing {
			tr.State = "firing"
			level := eventlog.LevelWarn
			if f.rule.Page {
				level = eventlog.LevelError
			}
			e.cfg.Events.Log(ctx, level, "slo", EventBurnAlert,
				eventlog.F("objective", f.objective),
				eventlog.F("rule", f.rule.Name),
				eventlog.F("burn_long", f.burnLong),
				eventlog.F("burn_short", f.burnShort),
				eventlog.F("budget_remaining", f.budget),
				eventlog.F("page", f.rule.Page))
			if f.rule.Page && e.cfg.Incidents != nil {
				inc := e.cfg.Incidents.SLOBreach(f.objective, f.rule.Name,
					fmt.Sprintf("burn %.1fx over %v (threshold %.1fx)",
						f.burnLong, f.rule.Long, f.rule.Burn))
				tr.IncidentID = inc.ID
				e.mu.Lock()
				e.opened++
				e.mu.Unlock()
			}
		} else {
			tr.State = "resolved"
			e.cfg.Events.Info(ctx, "slo", EventBurnResolve,
				eventlog.F("objective", f.objective),
				eventlog.F("rule", f.rule.Name),
				eventlog.F("burn_long", f.burnLong))
		}
		e.cfg.Telemetry.Counter("slo_alerts_total",
			"Burn-rate alert transitions (firing and resolved).",
			telemetry.L("objective", f.objective),
			telemetry.L("rule", tr.Rule)).Inc()
		e.mu.Lock()
		e.log.Put(tr)
		e.mu.Unlock()
	}

	e.mu.Lock()
	st.Alerts = e.log.Values()
	st.IncidentsOpened = e.opened
	e.mu.Unlock()
	return st
}
