// Package csdinf is a Go implementation of the DSN-S 2024 paper
// "Empowering Data Centers with Computational Storage Drive-Based Deep
// Learning Inference Functionality to Combat Ransomware" (Friday, Bou-Harb,
// Lee, Peethambaran, Saxena).
//
// The library offloads the entire inference procedure of an LSTM classifier
// onto the FPGA of a simulated computational storage drive (Samsung
// SmartSSD class), reproducing the paper's five-kernel pipeline, its HLS
// optimization study (Fig. 3), the FPGA/CPU/GPU comparison (Table I), and
// the ransomware-detection use case trained on synthetic Cuckoo-style API
// call traces (Fig. 4, Table II, §IV metrics).
//
// The typical flow mirrors the paper end to end:
//
//	ds, _ := csdinf.BuildDataset(csdinf.DatasetConfig{Seed: 1})
//	trainDS, testDS, _ := ds.Split(0.2, 2)
//	res, _ := csdinf.Train(trainDS, testDS, csdinf.TrainConfig{Epochs: 30})
//
//	dev, _ := csdinf.NewSmartSSD(csdinf.CSDConfig{})
//	eng, _ := csdinf.Deploy(dev, res.Model, csdinf.DeployConfig{})
//	result, timing, _ := eng.PredictStored(ctx, offset) // in-storage inference
//
//	det, _ := csdinf.NewDetector(eng, csdinf.DetectorConfig{})
//	for _, call := range liveAPICalls {
//	    ev, _ := det.Observe(ctx, call) // streaming detection + mitigation
//	    _ = ev
//	}
//
// Every inference entry point — a single engine, the fleet serving layer,
// the hot-swap wrapper — implements the Inferencer interface and takes a
// context.Context, so cancellation and deadlines propagate from the caller
// down to the device queue. For sustained concurrent load, NewFleet serves
// requests over one or more devices with bounded queues, tenant-aware
// placement, and least-busy placement for untenanted work.
//
// All hardware (FPGA fabric and clock, SmartSSD, PCIe switch, A100/Xeon
// baselines) is simulated with calibrated timing models — see DESIGN.md for
// the substitution table — while the arithmetic (fixed-point kernels,
// training, quantization, detection) is fully functional.
package csdinf

import (
	"context"
	"io"
	"net/http"
	"time"

	"github.com/kfrida1/csdinf/internal/absint"
	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/cti"
	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/load"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/metrics"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/report"
	"github.com/kfrida1/csdinf/internal/sandbox"
	"github.com/kfrida1/csdinf/internal/serve"
	"github.com/kfrida1/csdinf/internal/slo"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
	"github.com/kfrida1/csdinf/internal/train"
	"github.com/kfrida1/csdinf/internal/vitis"
	"github.com/kfrida1/csdinf/internal/winapi"
)

// Version is the library version.
const Version = "1.0.0"

// Core model and training types.
type (
	// Model is the embedding+LSTM+FC classifier.
	Model = lstm.Model
	// ModelConfig describes the classifier architecture.
	ModelConfig = lstm.Config
	// TrainConfig controls offline training.
	TrainConfig = train.Config
	// TrainResult is a completed training run, including the Fig. 4
	// convergence history.
	TrainResult = train.Result
	// Scores bundles accuracy/precision/recall/F1.
	Scores = metrics.Scores
	// Confusion is a binary confusion matrix.
	Confusion = metrics.Confusion
)

// Dataset types.
type (
	// Dataset is a labelled corpus of fixed-length API-call sequences.
	Dataset = dataset.Dataset
	// DatasetConfig controls corpus synthesis.
	DatasetConfig = dataset.BuildConfig
	// Sequence is one labelled example.
	Sequence = dataset.Sequence
	// Family describes one ransomware family (Table II).
	Family = sandbox.Family
)

// Device and engine types.
type (
	// SmartSSD is the simulated computational storage drive.
	SmartSSD = csd.SmartSSD
	// CSDConfig describes a SmartSSD device.
	CSDConfig = csd.Config
	// Engine is a deployed in-storage inference engine.
	Engine = core.Engine
	// DeployConfig controls engine deployment.
	DeployConfig = core.DeployConfig
	// Result is one classification.
	Result = kernels.Result
	// Timing splits a classification into transfer and compute time.
	Timing = core.Timing
	// OptLevel selects the kernel optimization level of Fig. 3.
	OptLevel = kernels.OptLevel
	// Part is an FPGA device model.
	Part = fpga.Part
	// Inferencer is the stack-wide inference contract: context-aware
	// classification of live and SSD-resident sequences. Engine, Fleet,
	// and HotSwapEngine all implement it.
	Inferencer = infer.Inferencer
)

// Detection types.
type (
	// Detector consumes a live API-call stream and triggers in-storage
	// mitigation.
	Detector = detect.Detector
	// DetectorConfig controls the detector.
	DetectorConfig = detect.Config
	// DetectorEvent describes one classified window.
	DetectorEvent = detect.Event
)

// Optimization levels (cumulative, Fig. 3).
const (
	LevelVanilla    = kernels.LevelVanilla
	LevelII         = kernels.LevelII
	LevelFixedPoint = kernels.LevelFixedPoint
)

// Detector actions.
const (
	ActionNone  = detect.ActionNone
	ActionAlert = detect.ActionAlert
	ActionBlock = detect.ActionBlock
)

// FPGA parts.
var (
	// KU15P is the SmartSSD's Kintex UltraScale+ FPGA.
	KU15P = fpga.KU15P
	// AlveoU200 is the paper's experimental platform.
	AlveoU200 = fpga.AlveoU200
)

// Families lists the ten ransomware families of Table II.
var Families = sandbox.Families

// VocabSize is the API-call vocabulary size (278, the paper's M).
const VocabSize = winapi.VocabSize

// PaperModelConfig returns the exact architecture evaluated in the paper:
// 278-item vocabulary, embedding dimension 8, hidden size 32, softsign cell
// activation — 7,472 parameters plus the 33-parameter head.
func PaperModelConfig() ModelConfig { return lstm.PaperConfig() }

// NewModel constructs an untrained classifier with seeded initialization.
func NewModel(cfg ModelConfig, seed int64) (*Model, error) {
	return lstm.NewModel(cfg, seed)
}

// BuildDataset synthesizes an API-call corpus per the paper's Appendix A
// (sliding windows over ransomware-family and benign-application traces).
func BuildDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Build(cfg) }

// ReadDatasetCSV parses a corpus in the paper's n+1-column CSV format.
func ReadDatasetCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// Train fits a fresh classifier on trainDS, evaluating on testDS, and
// records the convergence trajectory (Fig. 4).
func Train(trainDS, testDS *Dataset, cfg TrainConfig) (*TrainResult, error) {
	return train.Train(trainDS, testDS, cfg)
}

// Evaluate runs a model over a dataset and returns the confusion matrix.
func Evaluate(m *Model, ds *Dataset) (Confusion, error) { return train.Evaluate(m, ds) }

// LoadWeights parses a model from the text weight format exported by
// SaveWeights (the §III-A host-initialization file).
func LoadWeights(r io.Reader) (*Model, error) { return lstm.ReadText(r) }

// SaveWeights writes the model in the text weight format.
func SaveWeights(m *Model, w io.Writer) error { return m.WriteText(w) }

// NewSmartSSD builds a simulated computational storage drive.
func NewSmartSSD(cfg CSDConfig) (*SmartSSD, error) { return csd.New(cfg) }

// Deploy initializes the CSD's FPGA with the trained model and returns the
// in-storage inference engine.
func Deploy(dev *SmartSSD, m *Model, cfg DeployConfig) (*Engine, error) {
	return core.Deploy(dev, m, cfg)
}

// NewDetector builds a streaming ransomware detector over a deployed
// engine (or any detect.Predictor).
func NewDetector(pred detect.Predictor, cfg DetectorConfig) (*Detector, error) {
	return detect.New(pred, cfg)
}

// APIName returns the Windows API name for a vocabulary ID.
func APIName(id int) (string, error) { return winapi.Name(id) }

// APIID returns the stable vocabulary ID of a Windows API name.
func APIID(name string) (int, error) { return winapi.ID(name) }

// ErrStreamBlocked is returned by Detector.Observe after mitigation has
// fired: the device has quarantined writes and the stream is contained.
var ErrStreamBlocked = detect.ErrBlocked

// BenignApps lists the 30 portable applications whose executions form the
// benign half of the corpus (Appendix A).
var BenignApps = sandbox.BenignApps

// RansomwareTrace generates a synthetic sandbox trace of the given family
// variant — length API-call IDs, deterministic per seed.
func RansomwareTrace(family string, variant, length int, seed int64) ([]int, error) {
	p, err := sandbox.RansomwareProfile(family, variant)
	if err != nil {
		return nil, err
	}
	return p.Generate(length, seed)
}

// BenignTrace generates a synthetic execution trace of one of the benign
// applications in BenignApps.
func BenignTrace(app string, length int, seed int64) ([]int, error) {
	p, err := sandbox.BenignProfile(app)
	if err != nil {
		return nil, err
	}
	return p.Generate(length, seed)
}

// DesktopTrace generates a manual-desktop-interaction trace (the paper's
// second benign source).
func DesktopTrace(length int, seed int64) ([]int, error) {
	return sandbox.ManualInteractionProfile().Generate(length, seed)
}

// Maintenance types (CTI-driven updates).
type (
	// Updater maintains the corpus and hot-swaps retrained models.
	Updater = cti.Updater
	// UpdaterConfig controls the updater.
	UpdaterConfig = cti.Config
	// UpdateResult summarizes one retraining generation.
	UpdateResult = cti.UpdateResult
	// HotSwapEngine is a detector predictor whose engine can be replaced
	// atomically while a stream is live.
	HotSwapEngine = cti.HotSwapEngine
	// AnalysisReport is a Cuckoo-style sandbox analysis report.
	AnalysisReport = report.Report
)

// LevelMixed is the mixed-precision configuration (paper §VI future work):
// DSP-packed narrow gate MACs with a full-precision cell path, sized to fit
// the SmartSSD's own KU15P.
const LevelMixed = kernels.LevelMixed

// Device registry types (shared device identity and lifecycle).
type (
	// DeviceRegistry owns CSD identity (stable "csd-000"-style IDs),
	// lifecycle state, and capacity accounting for every serving layer.
	DeviceRegistry = device.Registry
	// DeviceRegistryConfig controls a device registry.
	DeviceRegistryConfig = device.Config
	// Device is one registered drive.
	Device = device.Device
	// DeviceID is a stable device identity.
	DeviceID = device.ID
	// DeviceState is a device lifecycle state (provisioning, ready,
	// draining, failed).
	DeviceState = device.State
	// DeviceChange describes one lifecycle transition, as delivered to
	// registry watchers.
	DeviceChange = device.Change
)

// NewDeviceRegistry builds an empty shared device registry.
func NewDeviceRegistry(cfg DeviceRegistryConfig) *DeviceRegistry {
	return device.NewRegistry(cfg)
}

// Fleet types (the rack-scale serving layer).
type (
	// Fleet serves inference over N CSD nodes with tenant-aware placement,
	// QoS admission, and device lifecycle flows.
	Fleet = fleet.Fleet
	// FleetConfig controls a fleet.
	FleetConfig = fleet.Config
	// FleetClass is one QoS admission class (a named share of fleet
	// in-flight capacity).
	FleetClass = fleet.Class
	// FleetNodeStats describes one fleet node's serving activity.
	FleetNodeStats = fleet.NodeStats
)

// Fleet errors.
var (
	// ErrFleetAdmission is returned when a request's QoS class is at its
	// in-flight cap.
	ErrFleetAdmission = fleet.ErrAdmission
	// ErrNoReadyDevice is returned when every device is out of rotation.
	ErrNoReadyDevice = fleet.ErrNoReadyDevice
	// ErrFleetClosed is returned for requests submitted to a closed fleet.
	ErrFleetClosed = fleet.ErrClosed
)

// WithTenant stamps a tenant identity on a context; the fleet places all
// of a tenant's requests on the same device via consistent hashing.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return infer.WithTenant(ctx, tenant)
}

// ErrQueueFull is the scheduler's backpressure signal when a device queue
// has no room (and FleetConfig.Block is false).
var ErrQueueFull = serve.ErrQueueFull

// NewFleet deploys the model to fleetCfg.Nodes fresh CSDs and starts the
// serving layer: tenant-aware consistent-hash placement, least-busy
// placement for untenanted requests, per-class QoS admission, and
// drain/fail/rejoin lifecycle flows over the shared device registry. Each
// CSD keeps its registry ID ("csd-000", "csd-001", ...) across every
// layer: telemetry labels, trace track groups, incident attribution, and
// event device fields. Close the fleet to stop its device workers.
func NewFleet(m *Model, fleetCfg FleetConfig) (*Fleet, error) {
	return fleet.New(m, fleetCfg)
}

// NewUpdater trains an initial model on the base corpus, deploys it, and
// returns the CTI-driven maintenance loop.
func NewUpdater(base *Dataset, cfg UpdaterConfig) (*Updater, *UpdateResult, error) {
	return cti.NewUpdater(base, cfg)
}

// ReportFromTrace wraps an API-call trace in a Cuckoo-style analysis
// report (see internal/report for the schema).
func ReportFromTrace(name, family string, variant int, trace []int) (*AnalysisReport, error) {
	return report.FromTrace(
		report.Info{Category: "file", Machine: "win10-x64", Package: "exe"},
		report.Target{Name: name, Family: family, Variant: variant},
		trace,
	)
}

// ReadReport parses a Cuckoo-style JSON analysis report.
func ReadReport(r io.Reader) (*AnalysisReport, error) { return report.Read(r) }

// DatasetFromTraces windows labelled traces into a corpus (the ingestion
// path for externally supplied sandbox reports).
func DatasetFromTraces(traces []dataset.LabeledTrace, window, stride int, seed int64) (*Dataset, error) {
	return dataset.FromTraces(traces, window, stride, seed)
}

// LabeledTrace is a full-length API-call trace with its label.
type LabeledTrace = dataset.LabeledTrace

// FPGABinary is a linked FPGA binary (.xclbin) with its build report (the
// SmartSSD development toolkit of §II).
type FPGABinary = vitis.Binary

// BuildFPGABinary compiles the paper model's three kernels at the given
// optimization level and links them against the platform — the v++ flow
// (§IV). It fails with a resource error when the design does not fit, e.g.
// LevelFixedPoint on the KU15P.
func BuildFPGABinary(level OptLevel, part Part) (*FPGABinary, error) {
	specs, err := kernels.Specs(lstm.PaperConfig(), kernels.Config{Level: level, Part: part})
	if err != nil {
		return nil, err
	}
	return vitis.Link(specs, part)
}

// Numeric static-analysis types (the interval-domain abstract interpreter
// over the fixed-point datapath — see internal/absint). Deploy runs this
// analysis automatically for fixed-point engines and refuses models it
// cannot prove overflow-free; AnalyzeNumerics exposes the same verdict
// directly, e.g. to pick a scale before deployment or to inspect per-stage
// headroom. The CLI front end is `csdlint ranges`.
type (
	// NumericReport is the per-stage interval analysis of one (model,
	// scale, sequence-length) deployment; OverflowFree gives the verdict.
	NumericReport = absint.Report
	// NumericStageRange is one datapath stage's proven [lo, hi] bounds,
	// bit width, and headroom.
	NumericStageRange = absint.StageRange
	// NumericAnalysisConfig parameterizes an analysis run; the zero value
	// analyzes the paper's deployment (scale 10⁶, sequence length 100).
	NumericAnalysisConfig = absint.Config
)

// AnalyzeNumerics proves (or refutes) that the model's fixed-point datapath
// fits int64 at the configured scale and sequence length.
func AnalyzeNumerics(m *Model, cfg NumericAnalysisConfig) (*NumericReport, error) {
	return absint.Analyze(m, cfg)
}

// Per-process detection types.
type (
	// DetectorMux demultiplexes a system-wide API-call stream into
	// per-process detectors.
	DetectorMux = detect.Mux
	// DetectorMuxConfig controls the demultiplexer.
	DetectorMuxConfig = detect.MuxConfig
	// ProcessEvent is a classified window attributed to a process.
	ProcessEvent = detect.ProcessEvent
	// ScoredPrediction is one example's probability and ground truth.
	ScoredPrediction = metrics.ScoredPrediction
)

// NewDetectorMux builds a per-process detector demultiplexer.
func NewDetectorMux(pred detect.Predictor, cfg DetectorMuxConfig) (*DetectorMux, error) {
	return detect.NewMux(pred, cfg)
}

// Score runs the model over a dataset and returns per-sequence scored
// predictions for threshold-independent evaluation.
func Score(m *Model, ds *Dataset) ([]ScoredPrediction, error) { return train.Score(m, ds) }

// Telemetry types (the zero-dependency metrics and tracing core). A single
// Telemetry registry can be threaded through FleetConfig, DeployConfig,
// DetectorConfig, and UpdaterConfig so the whole stack reports into one
// exposition surface.
type (
	// Telemetry is a registry of named counters, gauges, and latency
	// histograms with Prometheus text, JSON, and summary-table exposition.
	Telemetry = telemetry.Registry
	// TelemetryCounter is a monotonically increasing metric.
	TelemetryCounter = telemetry.Counter
	// TelemetryGauge is a set/add instantaneous metric.
	TelemetryGauge = telemetry.Gauge
	// TelemetryHistogram is a lock-free fixed-bucket latency histogram.
	TelemetryHistogram = telemetry.Histogram
	// TelemetrySnapshot summarizes a histogram: count, mean ± 95% CI, and
	// p50/p90/p99 estimates (the shape of the paper's Table I).
	TelemetrySnapshot = telemetry.HistogramSnapshot
	// Span records the phases of one request's trip through the pipeline:
	// queue wait → SSD transfer → FPGA compute → verdict.
	Span = telemetry.Span
	// SpanLog is a fixed-capacity ring of recently completed spans.
	SpanLog = telemetry.SpanLog
)

// Trace types (the device-level timeline tracer and cycle profiler, the
// reproduction's Vitis Analyzer analogue — see internal/trace).
type (
	// Tracer records timestamped begin/end events on per-CU / DDR / PCIe /
	// SSD / queue tracks; export with WriteChrome (Perfetto-loadable) or
	// aggregate with Profile.
	Tracer = trace.Tracer
	// TraceEvent is one completed interval on a track.
	TraceEvent = trace.Event
	// TraceProfile is the aggregated cycle/occupancy/overlap report.
	TraceProfile = trace.Profile
)

// NewTracer builds an empty timeline tracer. Thread it through
// FleetConfig.Trace (or DeployConfig.Trace for a single engine) and export
// with WriteChrome or Profile after the run.
func NewTracer() *Tracer { return trace.New() }

// NewTelemetry builds an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewSpanLog builds a ring that retains the last capacity completed spans.
func NewSpanLog(capacity int) *SpanLog { return telemetry.NewSpanLog(capacity) }

// NewTelemetryHandler returns an http.Handler serving the registry at
// /metrics (Prometheus text format), /metrics.json (JSON snapshot),
// /spans.json (the span ring), and /healthz. spans may be nil.
func NewTelemetryHandler(r *Telemetry, spans *SpanLog) http.Handler {
	return telemetry.NewHTTPHandler(r, telemetry.HTTPOptions{Spans: spans})
}

// Event log types (the structured, leveled JSON-lines domain-event layer of
// the observability stack — see internal/eventlog). An EventLogger threaded
// through FleetConfig, DeployConfig, DetectorConfig, and UpdaterConfig
// records what happened — alerts, mitigations, model swaps, queue
// rejections — with trace-job and process correlation IDs; a nil logger is
// inert.
type (
	// EventLogger is the concurrency-safe structured event logger: bounded
	// in-memory ring plus non-blocking fan-out to attached Sinks.
	EventLogger = eventlog.Logger
	// EventLogConfig controls an EventLogger (minimum level, ring size,
	// sink queue bound).
	EventLogConfig = eventlog.Config
	// LoggedEvent is one structured record: sequence, time, level,
	// component, event name, correlation IDs, and typed fields.
	LoggedEvent = eventlog.Event
	// EventField is one structured key/value attribute of an event.
	EventField = eventlog.Field
	// EventLevel is an event severity (debug, info, warn, error).
	EventLevel = eventlog.Level
	// EventSink receives events from an EventLogger; slow sinks drop (and
	// count) rather than block emission.
	EventSink = eventlog.Sink
	// EventSinkStats reports one sink's written/dropped/error counters.
	EventSinkStats = eventlog.SinkStats
)

// Event severities, re-exported for EventLogConfig.MinLevel.
const (
	EventLevelDebug = eventlog.LevelDebug
	EventLevelInfo  = eventlog.LevelInfo
	EventLevelWarn  = eventlog.LevelWarn
	EventLevelError = eventlog.LevelError
)

// NewEventLogger builds a structured event logger.
func NewEventLogger(cfg EventLogConfig) *EventLogger { return eventlog.New(cfg) }

// NewEventFileSink opens (or truncates) a JSON-lines event file; attach the
// result with EventLogger.Attach.
func NewEventFileSink(path string) (EventSink, error) { return eventlog.NewFileSink(path) }

// Incident forensics types (see internal/incident): the recorder turns the
// per-process detection stream into SOC-facing forensic records.
type (
	// Incident is one flagged process's forensic record: confidence
	// trajectory, timestamps, model generation, device and queue-wait
	// attribution, and correlated trace job IDs.
	Incident = incident.Incident
	// IncidentWindow is one classified window inside an incident's
	// trajectory.
	IncidentWindow = incident.Window
	// IncidentRecorder accumulates incidents from detector window samples
	// and mux evictions.
	IncidentRecorder = incident.Recorder
	// IncidentConfig controls an IncidentRecorder.
	IncidentConfig = incident.Config
	// WindowSample is one classified window with its cross-layer
	// attribution (job ID, device, pipeline phases) — the payload of
	// DetectorConfig.OnWindow.
	WindowSample = detect.WindowSample
)

// NewIncidentRecorder builds an incident recorder. Wire its Window method
// to DetectorConfig.OnWindow and its Evict method to DetectorMuxConfig's
// OnEvict so every flagged process yields a forensic record.
func NewIncidentRecorder(cfg IncidentConfig) (*IncidentRecorder, error) {
	return incident.NewRecorder(cfg)
}

// AUC computes the area under the ROC curve of scored predictions.
func AUC(preds []ScoredPrediction) (float64, error) { return metrics.AUC(preds) }

// SLO types (the error-budget and burn-rate alerting layer — see
// internal/slo): declarative objectives over latency, availability, and
// detection windows, evaluated into rolling multi-window error budgets with
// Google-SRE-style multi-window multi-burn-rate alerts.
type (
	// SLObjective declares one service-level objective.
	SLObjective = slo.Objective
	// SLOKind selects what an objective measures (latency, availability,
	// detection windows-until-flagged).
	SLOKind = slo.Kind
	// BurnRule is one multi-window burn-rate alert rule.
	BurnRule = slo.Rule
	// SLOEvaluator ingests request outcomes and judges objectives; a nil
	// evaluator is inert, like the other observability hooks.
	SLOEvaluator = slo.Evaluator
	// SLOConfig wires objectives, rules, and the observability stack into
	// an evaluator.
	SLOConfig = slo.Config
	// SLOStatus is one evaluation pass: per-objective attainment, budget
	// remaining, burn rates, and the recent alert transitions.
	SLOStatus = slo.Status
	// SLObjectiveStatus is one objective's judgment inside an SLOStatus.
	SLObjectiveStatus = slo.ObjectiveStatus
)

// Objective kinds.
const (
	SLOAvailability  = slo.KindAvailability
	SLOLatency       = slo.KindLatency
	SLODetection     = slo.KindDetection
	SLORecall        = slo.KindRecall
	SLOFalsePositive = slo.KindFalsePositive
)

// NewSLOEvaluator builds an SLO evaluator over the given objectives.
func NewSLOEvaluator(cfg SLOConfig) (*SLOEvaluator, error) { return slo.NewEvaluator(cfg) }

// DefaultBurnRules returns the standard fast/slow multi-window burn-rate
// alert pair scaled to an objective window.
func DefaultBurnRules(window time.Duration) []BurnRule { return slo.DefaultRules(window) }

// Load-generation types (the open-loop generator behind cmd/csdload — see
// internal/load): Poisson or bursty arrivals dispatched at their scheduled
// times with coordinated-omission-safe latency measurement.
type (
	// LoadConfig describes one open-loop load run.
	LoadConfig = load.Config
	// LoadResult is a completed run's report: throughput, latency from
	// intended arrival, error taxonomy, SLO status, and chaos outcomes.
	LoadResult = load.Result
	// LoadTarget is anything csdload can drive — a Fleet satisfies it.
	LoadTarget = load.Target
	// ChaosStep is one scheduled mid-run disturbance (drain, fail, rejoin).
	ChaosStep = load.ChaosStep
)

// RunLoad executes an open-loop load run against a fleet or server and
// returns the SLO attainment report.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	return load.Run(ctx, cfg)
}

// Continuous-profiling types (the always-on runtime profiler and hot-path
// cost attribution layer — see internal/prof): a background sampler over
// scheduler/heap/GC/contention state, per-stage cost aggregation, and a
// bounded flight recorder dumped on incidents with the SpanLog's request
// rows. A nil Profiler is inert, like every other observability hook.
type (
	// Profiler is the continuous profiler: background runtime sampling,
	// per-stage cost aggregation, and the flight-recorder ring.
	Profiler = prof.Profiler
	// ProfilerConfig controls sampling period, ring capacity, contention
	// profiling rates, and the telemetry/eventlog/span-log wiring.
	ProfilerConfig = prof.Config
	// ProfSample is one runtime sample: goroutines, heap, GC pauses, and
	// top contended sites.
	ProfSample = prof.Sample
	// ProfStage names one host pipeline stage of a request's Span.
	ProfStage = telemetry.Stage
	// FlightDump is the flight recorder's exported state: recent runtime
	// samples and SpanLog request rows around an incident.
	FlightDump = prof.FlightDump
	// ProfSnapshot is the profiler's full exported state (the /prof.json
	// document).
	ProfSnapshot = prof.Snapshot
)

// Host pipeline stages of a request's Span.
const (
	StageQueue    = telemetry.StageQueue
	StageEncode   = telemetry.StageEncode
	StageTransfer = telemetry.StageTransfer
	StageCompute  = telemetry.StageCompute
	StageVerdict  = telemetry.StageVerdict
	StageObserve  = telemetry.StageObserve
)

// NewProfiler starts a continuous profiler. Thread it through
// FleetConfig.Prof or DetectorConfig.Prof; serve its
// Handler at /prof.json; and wire IncidentConfig.OnOpen to WriteFlight for
// incident-correlated flight dumps. Close it to stop the sampler.
func NewProfiler(cfg ProfilerConfig) (*Profiler, error) { return prof.New(cfg) }

// Detection-quality types (observability layer 6 — see internal/quality):
// ground-truth labels ride the request context, every classified window
// feeds an online confusion matrix with per-family breakdowns and
// detection-latency distributions, and a PSI drift detector watches the
// live score distribution against a pinned reference. A nil
// QualityScorecard is inert, like every other observability hook.
type (
	// QualityLabel is the ground-truth label riding a request context.
	QualityLabel = quality.Label
	// QualityScorecard is the online detection-quality aggregate behind
	// /quality.json.
	QualityScorecard = quality.Scorecard
	// QualityConfig wires the scorecard into telemetry, events, the SLO
	// feedback hook, and the drift reference.
	QualityConfig = quality.Config
	// QualityVerdict is one classified window as the scorecard sees it.
	QualityVerdict = quality.Verdict
	// QualitySnapshot is the scorecard's full exported state (the
	// /quality.json document).
	QualitySnapshot = quality.Snapshot
	// QualityReference is a pinned score distribution for PSI drift
	// detection.
	QualityReference = quality.Reference
)

// NewQualityScorecard builds a detection-quality scorecard. Thread it
// through DetectorConfig.Quality or LoadConfig.Quality, stamp generated
// traffic with WithQualityLabel, and wire QualityConfig.SLO to
// (*SLOEvaluator).Quality so recall and false-positive objectives burn on
// misclassification.
func NewQualityScorecard(cfg QualityConfig) (*QualityScorecard, error) { return quality.New(cfg) }

// WithQualityLabel stamps a ground-truth label onto a request context; the
// family string is sanitized to a bounded telemetry-legal value.
func WithQualityLabel(ctx context.Context, l QualityLabel) context.Context {
	return quality.WithLabel(ctx, l)
}

// QualityLabelFrom returns the ground-truth label stamped on the context,
// if any.
func QualityLabelFrom(ctx context.Context) (QualityLabel, bool) { return quality.LabelFrom(ctx) }

// NewQualityReference builds a pinned score-distribution reference from
// raw verdict probabilities observed in a known-good run.
func NewQualityReference(name string, scores []float64) (*QualityReference, error) {
	return quality.NewReference(name, scores)
}

// LoadQualityReference reads a pinned score-distribution reference (as
// written by WriteQualityReference or csdbench -quality-write-reference).
func LoadQualityReference(path string) (*QualityReference, error) {
	return quality.LoadReference(path)
}

// WriteQualityReference pins a reference score distribution to disk.
func WriteQualityReference(path string, r *QualityReference) error {
	return quality.WriteReference(path, r)
}
