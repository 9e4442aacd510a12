// Command csdload is the open-loop load generator for the CSD serving
// stack: it drives a simulated fleet with Poisson or bursty arrivals from
// thousands of synthetic processes and reports SLO attainment — latency and
// availability objectives, rolling error budgets, and Google-SRE-style
// burn-rate alerts, with incidents auto-opened when the fast-burn rule
// trips.
//
// Unlike the closed-loop benchmarks under internal/experiments, csdload
// dispatches every request at its scheduled arrival time and measures
// latency from that intent, so the report is coordinated-omission-safe: a
// backed-up fleet is charged for the queueing it inflicts.
//
// Usage:
//
//	csdload -devices 4 -arrivals poisson -rate 5000 -duration 10s -seed 1
//	csdload -chaos -json slo-report.json           # drain/fail/rejoin mid-run
//	csdload -metrics-addr 127.0.0.1:9100 -hold 1m  # /metrics, /slo.json, ...
//	csdload -prof -prof-dir out/prof               # continuous profiler + flight dumps
//
// With -prof, the continuous profiler samples runtime state throughout the
// run, attributes per-stage cost to every request, and dumps its flight
// recorder (recent samples + request breakdowns) to -prof-dir whenever an
// incident opens — so a paging SLO burn arrives with the runtime context
// that surrounded it. The final profiler snapshot lands at
// -prof-dir/prof.json, also served live at /prof.json with -metrics-addr.
//
// The -seed flag makes the arrival schedule (and its report digest)
// deterministic, which is how CI pins the generator.
//
// Every run is also a labeled detection-quality experiment: a
// -ransom-fraction slice of the synthetic PID population carries
// ground-truth ransomware labels (families round-robin from the sandbox
// catalog), every measured verdict feeds the quality scorecard (confusion
// matrix, per-family breakdown, windows-to-flag latency, PSI drift against
// -quality-reference), and the report gains a detection-quality section —
// served live at /quality.json with -metrics-addr and written to
// -quality-json as an artifact. With -recall-target/-fpr-target the
// scorecard feeds recall and false-positive-rate SLOs, so missed
// ransomware burns an error budget and pages exactly like a latency
// regression; -quality-inject-miss deliberately misses every labeled
// window to drill that path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/load"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/slo"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csdload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("csdload", flag.ContinueOnError)
	devices := fs.Int("devices", 4, "CSD fleet size")
	arrivals := fs.String("arrivals", "poisson", "arrival process: poisson or bursty")
	rate := fs.Float64("rate", 5000, "mean arrival rate, requests/second")
	duration := fs.Duration("duration", 10*time.Second, "run length including warmup")
	warmup := fs.Duration("warmup", 0, "leading slice excluded from measurement")
	seed := fs.Int64("seed", 1, "schedule seed (same seed: same arrivals, same report digest)")
	pids := fs.Int("pids", 2000, "synthetic process population")
	queueDepth := fs.Int("queue-depth", 0, "per-device queue depth (0: fleet default)")
	chaos := fs.Bool("chaos", false, "drain/fail/rejoin devices mid-run, including a full-rack blackout")
	jsonPath := fs.String("json", "", "write the SLO report JSON artifact to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /slo.json, /events.json, /incidents.json, /healthz on this address (empty: off)")
	hold := fs.Duration("hold", 0, "keep the metrics endpoint up this long after the run")
	latencySLO := fs.Duration("latency-slo", 2*time.Millisecond, "latency objective threshold (the paper's ~2ms promise)")
	latencyTarget := fs.Float64("latency-target", 0.99, "fraction of requests that must meet -latency-slo")
	availTarget := fs.Float64("availability-target", 0.999, "fraction of requests that must succeed")
	profOn := fs.Bool("prof", false, "run the continuous profiler: runtime sampling, per-stage cost attribution, incident flight dumps")
	profDir := fs.String("prof-dir", "prof-out", "with -prof: directory for flight dumps and the final prof.json snapshot")
	ransomFraction := fs.Float64("ransom-fraction", 0.1, "fraction of the PID population labeled ground-truth ransomware")
	qualityThreshold := fs.Float64("quality-threshold", 0.5, "probability at or above which a scored verdict counts as flagged")
	qualityReference := fs.String("quality-reference", "", "pinned score-distribution JSON for PSI drift detection (empty: drift off)")
	qualityInjectMiss := fs.Bool("quality-inject-miss", false, "fault injection: score every window as un-flagged, missing all ransomware (recall SLO drill)")
	recallTarget := fs.Float64("recall-target", 0, "recall objective: fraction of ransomware windows that must be flagged (0: off)")
	fprTarget := fs.Float64("fpr-target", 0, "false-positive objective: fraction of benign windows that must NOT be flagged (0: off)")
	qualityJSON := fs.String("quality-json", "", "write the /quality.json scorecard document to this file")
	qualityMinTP := fs.Int("quality-min-tp", 0, "fail the run unless the scorecard holds at least this many true positives")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// An untrained paper-architecture model: load generation exercises the
	// serving path, not classification accuracy.
	model, err := lstm.NewModel(lstm.PaperConfig(), *seed)
	if err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(512)
	events := eventlog.New(eventlog.Config{})
	defer events.Close()

	// The detection-quality scorecard. Its SLO hook closes over the
	// evaluator built below (both Quality and the hook are nil-safe, so
	// ordering is harmless); the profiler's flight dumps embed its
	// snapshot so a recall-burn page ships with the confusion matrix that
	// burned it.
	var evaluator *slo.Evaluator
	var reference *quality.Reference
	if *qualityReference != "" {
		if reference, err = quality.LoadReference(*qualityReference); err != nil {
			return err
		}
	}
	scorecard, err := quality.New(quality.Config{
		Telemetry: reg,
		Events:    events,
		Reference: reference,
		SLO:       func(truth, flagged bool) { evaluator.Quality(truth, flagged) },
	})
	if err != nil {
		return err
	}

	var profiler *prof.Profiler
	var tracer *trace.Tracer
	incidentCfg := incident.Config{Events: events}
	if *profOn {
		profiler, err = prof.New(prof.Config{
			Telemetry:   reg,
			Events:      events,
			Spans:       spans,
			FlightExtra: func() any { return scorecard.Snapshot() },
		})
		if err != nil {
			return err
		}
		defer profiler.Close()
		// A tracer rides along so the scheduler allocates per-request job
		// IDs — the correlation key between flight-dump request rows,
		// incident windows, and trace events. Its event ring is bounded.
		tracer = trace.New()
		// Every opened incident — SLO burn, device failure, flagged
		// process — dumps the flight recorder, so the page arrives with
		// the runtime samples and request rows that surrounded it.
		incidentCfg.OnOpen = func(inc incident.Incident) {
			kind := inc.Kind
			if kind == "" {
				kind = "process"
			}
			if _, err := profiler.WriteFlight(*profDir, "incident."+kind, inc.ID); err != nil {
				fmt.Fprintln(os.Stderr, "csdload: flight dump:", err)
			}
		}
	}
	rec, err := incident.NewRecorder(incidentCfg)
	if err != nil {
		return err
	}

	fl, err := fleet.New(model, fleet.Config{
		Nodes:      *devices,
		QueueDepth: *queueDepth,
		Telemetry:  reg,
		Spans:      spans,
		Events:     events,
		Incidents:  rec,
		Trace:      tracer,
		Prof:       profiler,
	})
	if err != nil {
		return err
	}
	defer fl.Close()

	// The SLO window is the measured part of the run: burn windows and the
	// error budget scale with it (a 10s run lives on a compressed clock).
	window := *duration - *warmup
	objectives := []slo.Objective{
		{
			Name:        "latency",
			Description: fmt.Sprintf("%.0f%% of requests classified within %v of intended arrival", *latencyTarget*100, *latencySLO),
			Kind:        slo.KindLatency,
			Target:      *latencyTarget,
			Threshold:   *latencySLO,
			Window:      window,
		},
		{
			Name:        "availability",
			Description: fmt.Sprintf("%.1f%% of requests succeed", *availTarget*100),
			Kind:        slo.KindAvailability,
			Target:      *availTarget,
			Window:      window,
		},
	}
	if *recallTarget > 0 {
		objectives = append(objectives, slo.Objective{
			Name:        "recall",
			Description: fmt.Sprintf("%.1f%% of ground-truth ransomware windows flagged", *recallTarget*100),
			Kind:        slo.KindRecall,
			Target:      *recallTarget,
			Window:      window,
		})
	}
	if *fprTarget > 0 {
		objectives = append(objectives, slo.Objective{
			Name:        "false-positive",
			Description: fmt.Sprintf("%.1f%% of ground-truth benign windows left unflagged", *fprTarget*100),
			Kind:        slo.KindFalsePositive,
			Target:      *fprTarget,
			Window:      window,
		})
	}
	evaluator, err = slo.NewEvaluator(slo.Config{
		Objectives: objectives,
		Telemetry:  reg,
		Events:     events,
		Incidents:  rec,
	})
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(out, "metrics at http://%s/metrics (slo at /slo.json)\n", ln.Addr())
		extra := map[string]http.Handler{
			"/slo.json":       evaluator.HTTPHandler(),
			"/events.json":    events.HTTPHandler(),
			"/incidents.json": rec.HTTPHandler(),
			"/quality.json":   scorecard.Handler(),
		}
		if profiler != nil {
			extra["/prof.json"] = profiler.Handler()
		}
		handler := telemetry.NewHTTPHandler(reg, telemetry.HTTPOptions{
			Spans:  spans,
			Extra:  extra,
			Health: fl.Registry().Health,
		})
		go func() { _ = http.Serve(ln, handler) }()
	}

	var steps []load.ChaosStep
	if *chaos {
		steps = chaosPlan(fl, *duration)
		fmt.Fprintf(out, "chaos: %d steps scheduled (drain/fail/rejoin + full-rack blackout)\n", len(steps))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := load.Run(ctx, load.Config{
		Target:            fl,
		Arrivals:          *arrivals,
		Rate:              *rate,
		Duration:          *duration,
		Warmup:            *warmup,
		PIDs:              *pids,
		Vocab:             lstm.PaperConfig().VocabSize,
		Seed:              *seed,
		Evaluator:         evaluator,
		Events:            events,
		Chaos:             steps,
		Quality:           scorecard,
		QualityThreshold:  *qualityThreshold,
		RansomFraction:    *ransomFraction,
		QualityInjectMiss: *qualityInjectMiss,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}

	fmt.Fprintln(out)
	if err := res.WriteText(out); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := telemetry.WriteJSONFile(*jsonPath, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nSLO report written to %s\n", *jsonPath)
	}
	if profiler != nil {
		path, err := profiler.WriteSnapshot(*profDir)
		if err != nil {
			return fmt.Errorf("write prof snapshot: %w", err)
		}
		fmt.Fprintf(out, "profiler snapshot written to %s\n", path)
	}
	if *qualityJSON != "" {
		if err := telemetry.WriteJSONFile(*qualityJSON, scorecard.Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(out, "quality scorecard written to %s\n", *qualityJSON)
	}
	if *qualityMinTP > 0 {
		if tp := scorecard.Snapshot().Total.TP; tp < *qualityMinTP {
			return fmt.Errorf("quality gate: %d true positives, want at least %d", tp, *qualityMinTP)
		}
	}
	if *metricsAddr != "" && *hold > 0 {
		fmt.Fprintf(out, "holding metrics endpoint for %v...\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}

// chaosPlan schedules the fleet disturbances of a -chaos run: a drain and
// rejoin of one device, a hard failure and rejoin of another, and — because
// the fleet's retry-on-spillover masks single-device faults — a short
// full-rack blackout that deliberately violates the availability objective
// so the run demonstrates a fast-burn alert and its auto-opened incident.
func chaosPlan(fl *fleet.Fleet, duration time.Duration) []load.ChaosStep {
	at := func(frac float64) time.Duration {
		return time.Duration(frac * float64(duration))
	}
	var ids []device.ID
	for _, d := range fl.Registry().List() {
		ids = append(ids, d.ID())
	}
	var steps []load.ChaosStep
	if len(ids) >= 2 {
		id := ids[1]
		steps = append(steps,
			load.ChaosStep{At: at(0.35), Name: fmt.Sprintf("drain %s", id), Do: func(context.Context) error {
				return fl.Drain(id, "chaos-drain")
			}},
			load.ChaosStep{At: at(0.45), Name: fmt.Sprintf("rejoin %s", id), Do: func(context.Context) error {
				return fl.Rejoin(id, "chaos-drain-over")
			}},
		)
	}
	if len(ids) >= 3 {
		id := ids[2]
		steps = append(steps,
			load.ChaosStep{At: at(0.5), Name: fmt.Sprintf("fail %s", id), Do: func(context.Context) error {
				return fl.Fail(id, "chaos-fault")
			}},
			load.ChaosStep{At: at(0.6), Name: fmt.Sprintf("rejoin %s", id), Do: func(context.Context) error {
				return fl.Rejoin(id, "chaos-repaired")
			}},
		)
	}
	steps = append(steps,
		load.ChaosStep{At: at(0.7), Name: "blackout: fail all devices", Do: func(ctx context.Context) error {
			var first error
			for _, id := range ids {
				if err := fl.Fail(id, "chaos-blackout"); err != nil && first == nil {
					first = err
				}
			}
			return first
		}},
		load.ChaosStep{At: at(0.85), Name: "blackout over: rejoin all devices", Do: func(ctx context.Context) error {
			var first error
			for _, id := range ids {
				if err := fl.Rejoin(id, "chaos-blackout-over"); err != nil && first == nil {
					first = err
				}
			}
			return first
		}},
	)
	return steps
}
