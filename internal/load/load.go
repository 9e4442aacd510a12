// Package load is an open-loop workload generator for the CSD serving
// stack, with coordinated-omission-safe latency measurement and SLO
// attainment reporting.
//
// Closed-loop benchmarks (internal/experiments) issue the next request only
// after the previous one returns, so a slow server quietly slows the
// workload down and the measured latency distribution omits exactly the
// requests that would have suffered — the coordinated-omission trap. This
// package instead pre-generates a deterministic arrival schedule (Poisson
// or bursty Markov-modulated, seeded for CI) and dispatches each request at
// its *intended* arrival time regardless of how the system is coping.
// Latency is measured from the intended arrival, not from dispatch, so
// queueing delay the server inflicts on a backed-up workload is charged to
// the server.
//
// Every post-warmup outcome feeds an slo.Evaluator, turning the run into a
// judgment: per-objective attainment, error budget remaining, a burn-rate
// timeline sampled through the run, and any alert firings — the report
// cmd/csdload renders. Chaos steps (fleet drain/fail/rejoin) can be
// scheduled mid-run to show budget burn during re-placement.
package load

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/sandbox"
	"github.com/kfrida1/csdinf/internal/serve"
	"github.com/kfrida1/csdinf/internal/slo"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Event names emitted by a run.
const (
	// EventRunStart fires when dispatch begins.
	EventRunStart = "load.run.start"
	// EventRunDone fires after the last in-flight request returns.
	EventRunDone = "load.run.done"
	// EventChaosStep fires as each scheduled chaos step executes; the step
	// name is carried as a field so the event name stays constant.
	EventChaosStep = "load.chaos.step"
)

// Arrival process names accepted by Config.Arrivals.
const (
	// ArrivalsPoisson draws exponential inter-arrival gaps — memoryless
	// traffic at the configured mean rate.
	ArrivalsPoisson = "poisson"
	// ArrivalsBursty draws from a two-state Markov-modulated Poisson
	// process: calm stretches at 0.4x the mean rate punctuated by bursts at
	// 2.6x, with dwell times chosen so the long-run mean matches Rate.
	ArrivalsBursty = "bursty"
)

// maxInFlight sheds arrivals when this many requests are outstanding — a
// safety valve, not a throttle; shed arrivals count as bad availability
// outcomes.
const maxInFlight = 16384

// Target is the system under test — fleet.Fleet and serve.Server both
// satisfy it directly.
type Target interface {
	Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error)
	SeqLen() int
}

// ChaosStep is one scheduled mid-run disturbance.
type ChaosStep struct {
	// At is the step's offset from run start.
	At time.Duration
	// Name labels the step in events and the report ("drain csd-001").
	Name string
	// Do executes the disturbance (typically a fleet Drain/Fail/Rejoin).
	Do func(ctx context.Context) error
}

// Config controls a run.
type Config struct {
	// Target is the system under test; required.
	Target Target
	// Arrivals selects the arrival process; "" defaults to ArrivalsPoisson.
	Arrivals string
	// Rate is the mean arrival rate in requests per second; required.
	Rate float64
	// Duration is the total run length (including warmup); required.
	Duration time.Duration
	// Warmup is the leading slice of the run excluded from measurement —
	// requests whose intended arrival falls inside it are dispatched but
	// not recorded. Must be shorter than Duration.
	Warmup time.Duration
	// PIDs is the synthetic process population: each arrival is attributed
	// to one of PIDs processes, each with its own tenant key for fleet
	// placement and its own deterministic call sequence. 0 defaults to 2000.
	PIDs int
	// Vocab bounds the synthetic sequence tokens; 0 defaults to the
	// paper's 278-call vocabulary.
	Vocab int
	// Seed makes the schedule deterministic: same seed, same arrivals,
	// same PIDs, same sequences (and the same ScheduleDigest).
	Seed int64
	// SampleEvery is the burn-rate timeline resolution; 0 defaults to
	// Duration/20, clamped to at least 50ms.
	SampleEvery time.Duration
	// Evaluator, when non-nil, receives every post-warmup outcome and is
	// evaluated on the sample tick and once more at run end.
	Evaluator *slo.Evaluator
	// Events, when non-nil, receives the load.* event stream.
	Events *eventlog.Logger
	// Chaos steps execute at their offsets, in At order.
	Chaos []ChaosStep
	// Quality, when non-nil, turns the run into a labeled detection-quality
	// experiment: a RansomFraction slice of the PID population is labeled
	// ground-truth ransomware (families assigned round-robin from the
	// sandbox catalog), each request context carries its PID's label, and
	// every measured successful prediction is scored into the scorecard as
	// flagged iff probability >= QualityThreshold. Label assignment is a
	// pure function of the PID, so it never perturbs the seeded arrival
	// schedule (ScheduleDigest is unchanged by quality settings).
	Quality *quality.Scorecard
	// QualityThreshold is the flag boundary for quality scoring; 0
	// defaults to 0.5.
	QualityThreshold float64
	// RansomFraction is the fraction of the PID population labeled
	// ransomware, in [0, 1]; 0 defaults to 0.1.
	RansomFraction float64
	// QualityInjectMiss is a fault injection for SLO drills: every scored
	// verdict is recorded as un-flagged, so ground-truth ransomware is
	// always missed and a recall objective burns its entire budget.
	QualityInjectMiss bool
}

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration
	pid    int
	tenant string
	seq    []int
}

// labelFor derives a PID's ground-truth label: the first
// round(RansomFraction × PIDs) PIDs of the population are ransomware,
// with families assigned round-robin from the sandbox catalog. Pure in
// the PID so quality labeling never consumes schedule randomness.
func labelFor(cfg *Config, pid int) quality.Label {
	idx := pid - 1000
	ransom := int(cfg.RansomFraction*float64(cfg.PIDs) + 0.5)
	if idx < ransom {
		fam := sandbox.Families[idx%len(sandbox.Families)]
		return quality.Label{Truth: true, Family: quality.SanitizeFamily(fam.Name)}
	}
	return quality.Label{Truth: false, Family: "benign"}
}

// ErrorCount is one entry of the run's error breakdown.
type ErrorCount struct {
	Reason string `json:"reason"`
	Count  int64  `json:"count"`
}

// ChaosResult records one executed chaos step.
type ChaosResult struct {
	Name string `json:"name"`
	// AtSeconds is the scheduled offset; ExecutedSeconds the actual one.
	AtSeconds       float64 `json:"at_s"`
	ExecutedSeconds float64 `json:"executed_s"`
	Err             string  `json:"error,omitempty"`
}

// TimelineObjective is one objective's judgment at a timeline point.
type TimelineObjective struct {
	Name            string  `json:"name"`
	BudgetRemaining float64 `json:"budget_remaining"`
	// WorstBurn is the highest long-window burn rate across the
	// objective's rules.
	WorstBurn float64 `json:"worst_burn"`
	Firing    bool    `json:"firing"`
}

// TimelinePoint is one sample of the burn-rate timeline.
type TimelinePoint struct {
	OffsetSeconds float64             `json:"offset_s"`
	InFlight      int64               `json:"in_flight"`
	Measured      int64               `json:"measured"`
	Objectives    []TimelineObjective `json:"objectives,omitempty"`
}

// LatencySummary condenses the measured latency distribution, in
// milliseconds (coordinated-omission-safe: measured from intended arrival).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MinMS  float64 `json:"min_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Result is the full report of one run.
type Result struct {
	Arrivals       string  `json:"arrivals"`
	RateHz         float64 `json:"rate_hz"`
	DurationSecond float64 `json:"duration_s"`
	WarmupSeconds  float64 `json:"warmup_s"`
	Seed           int64   `json:"seed"`
	PIDs           int     `json:"pids"`
	// ScheduleDigest fingerprints the generated arrival schedule; it
	// depends only on the configuration and seed, so two runs with the
	// same flags produce the same digest.
	ScheduleDigest string `json:"schedule_digest"`
	// Scheduled counts every generated arrival; Warmup the ones dispatched
	// inside the warmup slice; Requests the measured (post-warmup) ones.
	Scheduled int64 `json:"scheduled"`
	Warmup    int64 `json:"warmup"`
	Requests  int64 `json:"requests"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	// Shed counts arrivals dropped at the maxInFlight safety valve (also
	// included in Failed's availability accounting).
	Shed           int64          `json:"shed"`
	ThroughputHz   float64        `json:"throughput_hz"`
	ElapsedSeconds float64        `json:"elapsed_s"`
	Errors         []ErrorCount   `json:"errors,omitempty"`
	Latency        LatencySummary `json:"latency"`
	// SLO is the final evaluation pass, nil when no evaluator was
	// configured.
	SLO      *slo.Status     `json:"slo,omitempty"`
	Timeline []TimelinePoint `json:"timeline,omitempty"`
	Chaos    []ChaosResult   `json:"chaos,omitempty"`
	// Quality is the detection-quality scorecard at run end, nil when no
	// scorecard was configured.
	Quality *quality.Snapshot `json:"quality,omitempty"`
}

func (c *Config) validate() error {
	if c.Target == nil {
		return errors.New("load: Config.Target is required")
	}
	if c.Rate <= 0 {
		return fmt.Errorf("load: Rate must be positive, got %v", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("load: Duration must be positive, got %v", c.Duration)
	}
	if c.Warmup < 0 || c.Warmup >= c.Duration {
		return fmt.Errorf("load: Warmup %v must be in [0, Duration)", c.Warmup)
	}
	if c.Arrivals == "" {
		c.Arrivals = ArrivalsPoisson
	}
	if c.Arrivals != ArrivalsPoisson && c.Arrivals != ArrivalsBursty {
		return fmt.Errorf("load: unknown arrival process %q (want %s or %s)",
			c.Arrivals, ArrivalsPoisson, ArrivalsBursty)
	}
	if c.PIDs == 0 {
		c.PIDs = 2000
	}
	if c.PIDs < 0 {
		return fmt.Errorf("load: PIDs must be positive, got %d", c.PIDs)
	}
	if c.Vocab == 0 {
		c.Vocab = 278
	}
	if c.QualityThreshold == 0 {
		c.QualityThreshold = 0.5
	}
	if c.QualityThreshold < 0 || c.QualityThreshold >= 1 {
		return fmt.Errorf("load: QualityThreshold %v outside (0, 1)", c.QualityThreshold)
	}
	if c.RansomFraction == 0 {
		c.RansomFraction = 0.1
	}
	if c.RansomFraction < 0 || c.RansomFraction > 1 {
		return fmt.Errorf("load: RansomFraction %v outside [0, 1]", c.RansomFraction)
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = c.Duration / 20
		if c.SampleEvery < 50*time.Millisecond {
			c.SampleEvery = 50 * time.Millisecond
		}
	}
	return nil
}

// Schedule pre-generates the run's deterministic arrival schedule and
// returns its digest. Exposed so tests can pin determinism without running
// load.
func Schedule(cfg Config) (int, string, error) {
	if err := cfg.validate(); err != nil {
		return 0, "", err
	}
	sched := buildSchedule(cfg, cfg.Target.SeqLen())
	return len(sched), digestOf(sched), nil
}

// buildSchedule draws the arrival offsets, PID attributions, and synthetic
// call sequences from the seeded source.
func buildSchedule(cfg Config, seqLen int) []arrival {
	r := rand.New(rand.NewSource(cfg.Seed))
	var out []arrival

	// Bursty modulation: calm/burst rates bracket the mean so that with
	// 400ms calm and 150ms burst dwells the long-run rate matches Rate
	// ((0.4*400 + 2.6*150) / 550 = 1.0).
	const calmFactor, burstFactor = 0.4, 2.6
	burst := false
	stateEnd := time.Duration(0)
	dwell := func() time.Duration {
		mean := 400 * time.Millisecond
		if burst {
			mean = 150 * time.Millisecond
		}
		return time.Duration(r.ExpFloat64() * float64(mean))
	}
	if cfg.Arrivals == ArrivalsBursty {
		stateEnd = dwell()
	}

	t := time.Duration(0)
	for {
		rate := cfg.Rate
		if cfg.Arrivals == ArrivalsBursty {
			for t >= stateEnd {
				burst = !burst
				stateEnd += dwell()
			}
			if burst {
				rate *= burstFactor
			} else {
				rate *= calmFactor
			}
		}
		gap := time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if gap < time.Nanosecond {
			gap = time.Nanosecond
		}
		t += gap
		if t >= cfg.Duration {
			return out
		}
		pid := 1000 + r.Intn(cfg.PIDs)
		seq := make([]int, seqLen)
		for i := range seq {
			seq[i] = r.Intn(cfg.Vocab)
		}
		out = append(out, arrival{
			at:     t,
			pid:    pid,
			tenant: fmt.Sprintf("pid-%d", pid),
			seq:    seq,
		})
	}
}

// digestOf fingerprints a schedule: arrival offsets, PIDs, and sequences.
func digestOf(sched []arrival) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(int64(len(sched)))
	for _, a := range sched {
		put(int64(a.at))
		put(int64(a.pid))
		for _, s := range a.seq {
			put(int64(s))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// reason classifies a request error for the report's breakdown.
func reason(err error) string {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return "queue-full"
	case errors.Is(err, serve.ErrNoReadyDevice):
		return "no-ready-device"
	case errors.Is(err, serve.ErrClosed), errors.Is(err, fleet.ErrClosed):
		return "closed"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "other"
	}
}

// Run executes the configured workload and returns the report. It blocks
// until every dispatched request has returned (or ctx is canceled, which
// stops dispatch and waits for in-flight requests).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sched := buildSchedule(cfg, cfg.Target.SeqLen())
	digest := digestOf(sched)

	cfg.Events.Info(ctx, "load", EventRunStart,
		eventlog.F("arrivals", cfg.Arrivals),
		eventlog.F("rate_hz", cfg.Rate),
		eventlog.F("duration_ns", cfg.Duration),
		eventlog.F("warmup_ns", cfg.Warmup),
		eventlog.F("seed", cfg.Seed),
		eventlog.F("scheduled", len(sched)),
		eventlog.F("schedule_digest", digest))

	hist := telemetry.NewHistogram(telemetry.Buckets{})
	var (
		measured, succeeded, failed, shed, warm atomic.Int64
		inflight                                atomic.Int64

		errMu     sync.Mutex
		errCounts = map[string]int64{}

		tlMu     sync.Mutex
		timeline []TimelinePoint
		chaosRes []ChaosResult
	)
	countErr := func(r string) {
		errMu.Lock()
		errCounts[r]++
		errMu.Unlock()
	}

	start := time.Now()
	warmEnd := start.Add(cfg.Warmup)
	done := make(chan struct{})
	var aux sync.WaitGroup

	// Chaos executor: steps fire at their offsets, in order.
	steps := append([]ChaosStep(nil), cfg.Chaos...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	if len(steps) > 0 {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for _, s := range steps {
				t := time.NewTimer(time.Until(start.Add(s.At)))
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return
				case <-done:
					t.Stop()
					return
				}
				executed := time.Since(start)
				err := s.Do(ctx)
				res := ChaosResult{
					Name:            s.Name,
					AtSeconds:       s.At.Seconds(),
					ExecutedSeconds: executed.Seconds(),
				}
				fields := []eventlog.Field{
					eventlog.F("step", s.Name),
					eventlog.F("offset_ns", executed),
				}
				if err != nil {
					res.Err = err.Error()
					fields = append(fields, eventlog.F("error", err))
					cfg.Events.Warn(ctx, "load", EventChaosStep, fields...)
				} else {
					cfg.Events.Info(ctx, "load", EventChaosStep, fields...)
				}
				tlMu.Lock()
				chaosRes = append(chaosRes, res)
				tlMu.Unlock()
			}
		}()
	}

	// Burn-rate timeline sampler.
	if cfg.Evaluator != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			tick := time.NewTicker(cfg.SampleEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
				case <-ctx.Done():
					return
				case <-done:
					return
				}
				st := cfg.Evaluator.Evaluate()
				pt := TimelinePoint{
					OffsetSeconds: time.Since(start).Seconds(),
					InFlight:      inflight.Load(),
					Measured:      measured.Load(),
				}
				for _, o := range st.Objectives {
					to := TimelineObjective{Name: o.Name, BudgetRemaining: o.BudgetRemaining}
					for _, b := range o.Burns {
						if b.BurnLong > to.WorstBurn {
							to.WorstBurn = b.BurnLong
						}
						to.Firing = to.Firing || b.Firing
					}
					pt.Objectives = append(pt.Objectives, to)
				}
				tlMu.Lock()
				timeline = append(timeline, pt)
				tlMu.Unlock()
			}
		}()
	}

	// Open-loop dispatch: each request launches at its intended arrival no
	// matter how the target is coping; latency is charged from that intent.
	var wg sync.WaitGroup
dispatch:
	for _, a := range sched {
		intended := start.Add(a.at)
		if wait := time.Until(intended); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				break dispatch
			}
		}
		if ctx.Err() != nil {
			break dispatch
		}
		post := !intended.Before(warmEnd)
		if inflight.Load() >= maxInFlight {
			// The safety valve: record the shed arrival as a bad outcome
			// instead of silently omitting it.
			if post {
				shed.Add(1)
				measured.Add(1)
				failed.Add(1)
				countErr("shed")
				cfg.Evaluator.Outcome(false)
			} else {
				warm.Add(1)
			}
			continue
		}
		wg.Add(1)
		inflight.Add(1)
		go func(a arrival, intended time.Time, post bool) {
			defer wg.Done()
			defer inflight.Add(-1)
			tctx := infer.WithTenant(ctx, a.tenant)
			if cfg.Quality != nil {
				tctx = quality.WithLabel(tctx, labelFor(&cfg, a.pid))
			}
			res, _, err := cfg.Target.Predict(tctx, a.seq)
			lat := time.Since(intended)
			if !post {
				warm.Add(1)
				return
			}
			measured.Add(1)
			ok := err == nil
			if ok {
				succeeded.Add(1)
			} else {
				failed.Add(1)
				countErr(reason(err))
			}
			hist.ObserveDuration(lat)
			cfg.Evaluator.Outcome(ok)
			cfg.Evaluator.Latency(lat, ok)
			if cfg.Quality != nil && ok {
				flagged := res.Probability >= cfg.QualityThreshold
				if cfg.QualityInjectMiss {
					flagged = false
				}
				cfg.Quality.Observe(tctx, quality.Verdict{
					PID:         a.pid,
					Probability: res.Probability,
					Flagged:     flagged,
				})
			}
		}(a, intended, post)
	}
	wg.Wait()
	close(done)
	aux.Wait()

	elapsed := time.Since(start)
	res := &Result{
		Arrivals:       cfg.Arrivals,
		RateHz:         cfg.Rate,
		DurationSecond: cfg.Duration.Seconds(),
		WarmupSeconds:  cfg.Warmup.Seconds(),
		Seed:           cfg.Seed,
		PIDs:           cfg.PIDs,
		ScheduleDigest: digest,
		Scheduled:      int64(len(sched)),
		Warmup:         warm.Load(),
		Requests:       measured.Load(),
		Succeeded:      succeeded.Load(),
		Failed:         failed.Load(),
		Shed:           shed.Load(),
		ElapsedSeconds: elapsed.Seconds(),
		Timeline:       timeline,
		Chaos:          chaosRes,
	}
	if span := elapsed - cfg.Warmup; span > 0 {
		res.ThroughputHz = float64(res.Requests) / span.Seconds()
	}
	snap := hist.Snapshot()
	ms := func(v float64) float64 { return v / float64(time.Millisecond) }
	res.Latency = LatencySummary{
		Count:  snap.Count,
		MeanMS: ms(snap.Mean),
		P50MS:  ms(snap.P50),
		P90MS:  ms(snap.P90),
		P99MS:  ms(snap.P99),
		MinMS:  ms(float64(snap.Min)),
		MaxMS:  ms(float64(snap.Max)),
	}
	for r, n := range errCounts {
		res.Errors = append(res.Errors, ErrorCount{Reason: r, Count: n})
	}
	sort.Slice(res.Errors, func(i, j int) bool { return res.Errors[i].Reason < res.Errors[j].Reason })
	if cfg.Evaluator != nil {
		st := cfg.Evaluator.Evaluate()
		res.SLO = &st
	}
	if cfg.Quality != nil {
		q := cfg.Quality.Snapshot()
		res.Quality = &q
	}

	doneFields := []eventlog.Field{
		eventlog.F("requests", res.Requests),
		eventlog.F("succeeded", res.Succeeded),
		eventlog.F("failed", res.Failed),
		eventlog.F("shed", res.Shed),
		eventlog.F("throughput_hz", res.ThroughputHz),
		eventlog.F("p99_ms", res.Latency.P99MS),
	}
	if res.SLO != nil {
		met := true
		worst := math.Inf(1)
		for _, o := range res.SLO.Objectives {
			met = met && o.Met
			if o.BudgetRemaining < worst {
				worst = o.BudgetRemaining
			}
		}
		doneFields = append(doneFields,
			eventlog.F("slo_met", met),
			eventlog.F("worst_budget_remaining", worst))
	}
	cfg.Events.Info(ctx, "load", EventRunDone, doneFields...)
	return res, ctx.Err()
}
