// Command csddetect demonstrates the paper's ransomware use case end to
// end: it deploys a trained classifier onto the simulated SmartSSD, then
// replays a live API-call stream — a benign desktop process running
// alongside a process that ransomware hijacks — and shows the in-storage
// detector alerting and triggering mitigation.
//
// The full pipeline is instrumented: engine transfer/compute histograms,
// scheduler queue waits, and verdict counters all report into one telemetry
// registry, summarized on stdout at exit and optionally served over HTTP;
// the structured event log and incident forensics ride the same stack:
//
//	csddetect -metrics-addr 127.0.0.1:9100         # /metrics, /events.json, /incidents.json, ...
//	csddetect -events events.jsonl                 # JSON-lines event stream (jq-friendly)
//	csddetect -incident-dir incidents/             # one JSON forensic report per incident
//	csddetect -prof -prof-dir prof/                # continuous profiler + incident flight dumps
//
// Usage:
//
//	csddetect -weights weights.txt                 # use exported weights
//	csddetect                                      # quick-train a model first
//	csddetect -family Lockbit -variant 2 -seed 9
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"github.com/kfrida1/csdinf/internal/cti"
	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/sandbox"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
	"github.com/kfrida1/csdinf/internal/train"
	"github.com/kfrida1/csdinf/internal/winapi"
)

// The demo's two monitored processes: a benign desktop process and the
// process the ransomware hijacks. The mux tracks each separately, so the
// incident report attributes every window to the infected PID.
const (
	benignPID = 1001
	ransomPID = 2002
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csddetect:", err)
		os.Exit(1)
	}
}

// pipeline is the full detection stack csddetect drives: CSD devices →
// in-storage engines → fleet placement → hot-swap wrapper → per-process
// detector mux, with the incident recorder and structured event log fed
// at every layer. Tests build it directly to drive synthetic streams.
type pipeline struct {
	fl      *fleet.Fleet
	hot     *cti.HotSwapEngine
	mux     *detect.Mux
	rec     *incident.Recorder
	events  *eventlog.Logger
	quality *quality.Scorecard
}

type pipelineConfig struct {
	model     *lstm.Model
	threshold float64
	// devices is the CSD count of the fleet (0 means 1); processes are
	// placed per tenant.
	devices int
	reg     *telemetry.Registry
	spans   *telemetry.SpanLog
	tracer  *trace.Tracer
	events  *eventlog.Logger
	// profiler, when non-nil, attributes per-stage cost to every request
	// and dumps its flight recorder whenever an incident opens.
	profiler *prof.Profiler
	// onBlock, when non-nil, observes mitigation (the pipeline always
	// engages the device write quarantine first).
	onBlock func(detect.Event)
	// onIncident, when non-nil, fires as each incident opens (csddetect
	// wires the profiler's flight dump here).
	onIncident func(incident.Incident)
}

func buildPipeline(cfg pipelineConfig) (*pipeline, error) {
	fl, err := fleet.New(cfg.model, fleet.Config{
		Nodes:     max(cfg.devices, 1),
		Telemetry: cfg.reg, Spans: cfg.spans, Trace: cfg.tracer, Events: cfg.events,
		Prof: cfg.profiler,
	})
	if err != nil {
		return nil, err
	}
	p := &pipeline{fl: fl, events: cfg.events}
	quarantine := func() {
		// The write quarantine is rack-wide: every drive the process
		// could have placed onto rejects writes.
		for i := 0; i < fl.Nodes(); i++ {
			fl.Device(i).SSD().Quarantine(true)
		}
	}
	// The hot-swap wrapper is the CTI maintenance seam; its generation
	// stamps incident reports with the model version that produced the
	// verdicts.
	hot, err := cti.NewHotSwapEngine(fl)
	if err != nil {
		p.Close()
		return nil, err
	}
	if cfg.reg != nil {
		hot.Instrument(cfg.reg)
	}
	hot.SetEvents(cfg.events)
	rec, err := incident.NewRecorder(incident.Config{
		Generation: hot.Generation, Events: cfg.events, OnOpen: cfg.onIncident,
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	// The demo traffic comes from sandbox profiles, so ground truth is
	// known: the scorecard judges every window verdict against the label
	// replay stamps on the context.
	scorecard, err := quality.New(quality.Config{Telemetry: cfg.reg, Events: cfg.events})
	if err != nil {
		p.Close()
		return nil, err
	}
	p.quality = scorecard
	mux, err := detect.NewMux(hot, detect.MuxConfig{
		Detector: detect.Config{
			Threshold: cfg.threshold,
			Telemetry: cfg.reg,
			Spans:     cfg.spans,
			OnWindow:  rec.Window,
			Events:    cfg.events,
			Prof:      cfg.profiler,
			Quality:   scorecard,
			OnBlock: func(e detect.Event) {
				quarantine() // block all writes at the device level
				if cfg.onBlock != nil {
					cfg.onBlock(e)
				}
			},
		},
		OnEvict: rec.Evict,
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	p.hot, p.mux, p.rec = hot, mux, rec
	return p, nil
}

func (p *pipeline) Close() error { return p.fl.Close() }

func run(args []string) error {
	fs := flag.NewFlagSet("csddetect", flag.ContinueOnError)
	weights := fs.String("weights", "", "weight file from ransomtrain (empty: quick-train now)")
	family := fs.String("family", "Wannacry", "ransomware family to unleash")
	variant := fs.Int("variant", 0, "variant index within the family")
	benignCalls := fs.Int("benign-calls", 600, "benign API calls before infection")
	infectedCalls := fs.Int("infected-calls", 2000, "ransomware API calls to replay (max)")
	seed := fs.Int64("seed", 1, "seed")
	threshold := fs.Float64("threshold", 0.5, "alert probability threshold")
	trainEpochs := fs.Int("train-epochs", 15, "epochs for the quick-train fallback")
	trainScale := fs.Int("train-scale", 20, "1/N corpus scale for the quick-train fallback")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /spans.json, /events.json, /incidents.json, /healthz on this address (empty: off)")
	hold := fs.Duration("hold", 0, "keep the metrics endpoint up this long after the run")
	pprofOn := fs.Bool("pprof", false, "additionally mount net/http/pprof at /debug/pprof/ on the metrics address")
	tracePath := fs.String("trace", "", "write a Chrome trace (Perfetto-loadable) of the device timeline to this file")
	eventsPath := fs.String("events", "", "write the structured event log as JSON lines to this file (enables debug-level events)")
	incidentDir := fs.String("incident-dir", "", "write one JSON forensic report per incident into this directory")
	devices := fs.Int("devices", 1, "CSD count of the serving fleet (per-process placement)")
	profOn := fs.Bool("prof", false, "run the continuous profiler: runtime sampling, per-stage cost attribution, incident flight dumps")
	profDir := fs.String("prof-dir", "prof-out", "with -prof: directory for flight dumps and the final prof.json snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofOn && *metricsAddr == "" {
		return errors.New("-pprof requires -metrics-addr")
	}

	model, err := loadOrTrain(*weights, *seed, *trainEpochs, *trainScale)
	if err != nil {
		return err
	}

	// One registry, span ring, and event log for the whole stack: the
	// engine, the scheduler, and the detector all report into them, and
	// flight dumps ship the span ring.
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(512)
	evCfg := eventlog.Config{}
	if *eventsPath != "" {
		// The file sink captures the full forensic stream, including the
		// per-window and per-DMA debug events.
		evCfg.MinLevel = eventlog.LevelDebug
	}
	events := eventlog.New(evCfg)
	defer events.Close()
	if *eventsPath != "" {
		sink, err := eventlog.NewFileSink(*eventsPath)
		if err != nil {
			return fmt.Errorf("event log: %w", err)
		}
		events.Attach("file", sink)
	}

	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New()
	}

	var profiler *prof.Profiler
	var onIncident func(incident.Incident)
	if *profOn {
		profiler, err = prof.New(prof.Config{Telemetry: reg, Events: events, Spans: spans})
		if err != nil {
			return err
		}
		defer profiler.Close()
		// Each opening incident dumps the flight recorder: the forensic
		// report arrives with the runtime samples and the span ring's
		// request rows that surrounded the detection.
		onIncident = func(inc incident.Incident) {
			kind := inc.Kind
			if kind == "" {
				kind = "process"
			}
			if _, err := profiler.WriteFlight(*profDir, "incident."+kind, inc.ID); err != nil {
				fmt.Fprintln(os.Stderr, "csddetect: flight dump:", err)
			}
		}
	}

	p, err := buildPipeline(pipelineConfig{
		model: model, threshold: *threshold, devices: *devices,
		reg: reg, spans: spans, tracer: tracer, events: events,
		profiler: profiler, onIncident: onIncident,
		onBlock: func(e detect.Event) {
			fmt.Printf("[call %6d] *** MITIGATION: write quarantine engaged (p=%.3f) ***\n",
				e.CallIndex, e.Probability)
		},
	})
	if err != nil {
		return err
	}
	defer p.Close()
	fmt.Printf("deployed classifier to a %d-device fleet (per-process placement)\n", p.fl.Nodes())

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		fmt.Printf("metrics at http://%s/metrics\n", ln.Addr())
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.NewHTTPHandler(reg, telemetry.HTTPOptions{
			Spans:  spans,
			Extra:  extraHandlers(events, p.rec, profiler, p.quality),
			Health: p.fl.Registry().Health,
		}))
		if *pprofOn {
			// Mount explicitly rather than blank-importing, so the Go
			// profiling surface exists only when asked for.
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			fmt.Printf("pprof at http://%s/debug/pprof/\n", ln.Addr())
		}
		go func() {
			_ = http.Serve(ln, mux)
		}()
	}

	// Phase 1: benign desktop activity on its own process.
	benign := sandbox.ManualInteractionProfile()
	benignTrace, err := benign.Generate(*benignCalls, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("\n--- replaying %d benign API calls (manual desktop interaction, pid %d) ---\n",
		len(benignTrace), benignPID)
	benignCtx := quality.WithLabel(context.Background(), benign.Label())
	if err := replay(benignCtx, p.mux, benignPID, benignTrace, false); err != nil {
		return err
	}

	// Phase 2: the infection begins on a second process.
	profile, err := sandbox.RansomwareProfile(*family, *variant)
	if err != nil {
		return err
	}
	infected, err := profile.Generate(*infectedCalls, *seed+1)
	if err != nil {
		return err
	}
	fmt.Printf("--- %s.v%d begins executing as pid %d (%d calls max) ---\n",
		*family, *variant, ransomPID, len(infected))
	ransomCtx := quality.WithLabel(context.Background(), profile.Label())
	if err := replay(ransomCtx, p.mux, ransomPID, infected, true); err != nil {
		return err
	}

	var calls, windows, alerts int64
	for _, s := range p.mux.ProcessStats() {
		calls += s.CallsObserved
		windows += s.WindowsEvaluated
		alerts += s.Alerts
	}
	blocked, blockedPID := p.mux.Blocked()
	fmt.Printf("\nsummary: %d calls observed across %d processes, %d windows classified, %d alerts, blocked=%v\n",
		calls, p.mux.Processes(), windows, alerts, blocked)
	q := p.quality.Snapshot()
	fmt.Printf("quality: tp=%d fp=%d tn=%d fn=%d  recall %.4f  fpr %.4f  (windows-to-flag p50 %.0f)\n",
		q.Total.TP, q.Total.FP, q.Total.TN, q.Total.FN,
		q.Total.Recall, q.Total.FPR, q.WindowsToFlag.P50)
	printTelemetry(reg, spans)
	if tracer != nil {
		if err := writeTrace(*tracePath, tracer); err != nil {
			return err
		}
	}

	// Close out the forensic record: flush open incidents, write reports.
	incidents := p.rec.Flush()
	if *incidentDir != "" {
		n, err := p.rec.WriteReports(*incidentDir)
		if err != nil {
			return fmt.Errorf("incident reports: %w", err)
		}
		fmt.Printf("%d incident report(s) written to %s\n", n, *incidentDir)
	}
	for _, inc := range incidents {
		fmt.Printf("incident #%d: pid %d %s (%s), %d windows (%d alerts), max p=%.3f, model gen %d, devices %v\n",
			inc.ID, inc.PID, inc.State, inc.CloseReason, inc.WindowsTotal, inc.AlertsTotal,
			inc.MaxProbability, inc.ModelGeneration, inc.Devices)
	}
	if *eventsPath != "" {
		if err := events.Close(); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
		for _, st := range events.SinkStats() {
			if st.Name == "file" {
				fmt.Printf("%d event(s) written to %s (%d dropped)\n", st.Written, *eventsPath, st.Dropped)
			}
		}
	}

	if profiler != nil {
		path, err := profiler.WriteSnapshot(*profDir)
		if err != nil {
			return fmt.Errorf("write prof snapshot: %w", err)
		}
		fmt.Printf("profiler snapshot written to %s\n", path)
	}
	if !blocked {
		return fmt.Errorf("infection ran to completion without mitigation")
	}
	ransomStats := p.mux.ProcessStats()[blockedPID]
	fmt.Printf("ransomware (pid %d) stopped after %d of its API calls (%.1f%% of the trace executed)\n",
		blockedPID, ransomStats.CallsObserved, 100*float64(ransomStats.CallsObserved)/float64(len(infected)))
	if _, err := p.fl.Device(0).SSD().Write(0, []byte("ciphertext")); err != nil {
		fmt.Printf("subsequent encryption write rejected by the drive: %v\n", err)
	}
	if *metricsAddr != "" && *hold > 0 {
		fmt.Printf("holding metrics endpoint for %v...\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}

// extraHandlers assembles the observability endpoints mounted beside
// /metrics; /prof.json appears only when the profiler is on.
func extraHandlers(events *eventlog.Logger, rec *incident.Recorder, profiler *prof.Profiler, scorecard *quality.Scorecard) map[string]http.Handler {
	extra := map[string]http.Handler{
		"/events.json":    events.HTTPHandler(),
		"/incidents.json": rec.HTTPHandler(),
		"/quality.json":   scorecard.Handler(),
	}
	if profiler != nil {
		extra["/prof.json"] = profiler.Handler()
	}
	return extra
}

// writeTrace exports the device timeline as Chrome trace JSON and prints
// the aggregated cycle/occupancy profile.
func writeTrace(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\ndevice timeline written to %s (open at https://ui.perfetto.dev)\n\n", path)
	fmt.Print(tracer.Profile().Format())
	return nil
}

// printTelemetry renders the registry's summary tables and the most recent
// pipeline spans on stdout.
func printTelemetry(reg *telemetry.Registry, spans *telemetry.SpanLog) {
	fmt.Println("\ntelemetry:")
	if err := reg.WriteSummary(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csddetect: telemetry summary:", err)
	}
	recent := spans.Snapshot()
	if len(recent) == 0 {
		return
	}
	show := recent
	if len(show) > 3 {
		show = show[len(show)-3:]
	}
	fmt.Printf("last %d pipeline spans (of %d retained):\n", len(show), len(recent))
	for _, sp := range show {
		fmt.Printf("  %s\n", sp.String())
	}
}

// replay feeds one process's API-call stream into the mux, stopping when
// mitigation fires (for this or any process — the quarantine is global).
// The context carries the ground-truth quality label of the stream's
// profile so the scorecard can grade every window verdict.
func replay(ctx context.Context, mux *detect.Mux, pid int, calls []int, verbose bool) error {
	for _, call := range calls {
		ev, err := mux.Observe(ctx, pid, call)
		if err != nil {
			if errors.Is(err, detect.ErrBlocked) {
				return nil
			}
			return err
		}
		if ev == nil {
			continue
		}
		if verbose || ev.Action != detect.ActionNone {
			name, _ := winapi.Name(call)
			fmt.Printf("[call %6d] pid %d window p=%.3f action=%-5s (last call: %s)\n",
				ev.CallIndex, ev.PID, ev.Probability, ev.Action, name)
		}
		if ev.Action == detect.ActionBlock {
			return nil
		}
	}
	return nil
}

func loadOrTrain(path string, seed int64, epochs, scale int) (*lstm.Model, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", path, err)
		}
		defer f.Close()
		m, err := lstm.ReadText(f)
		if err != nil {
			return nil, err
		}
		fmt.Printf("loaded weights from %s\n", path)
		return m, nil
	}

	fmt.Printf("no weight file given; quick-training on a 1/%d-scale corpus...\n", scale)
	ds, err := dataset.Build(dataset.BuildConfig{
		RansomwareCount: dataset.PaperRansomwareCount / scale,
		BenignCount:     dataset.PaperBenignCount / scale,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	trainDS, testDS, err := ds.Split(0.2, seed+1)
	if err != nil {
		return nil, err
	}
	res, err := train.Train(trainDS, testDS, train.Config{
		Epochs: epochs, Seed: seed, TargetAccuracy: 0.97, EvalEvery: 1,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("quick-trained to test accuracy %.4f in %d epochs\n", res.Final.Accuracy, res.EpochsRun)
	return res.Model, nil
}
