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

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/cti"
	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/report"
	"github.com/kfrida1/csdinf/internal/sandbox"
	"github.com/kfrida1/csdinf/internal/serve"
	"github.com/kfrida1/csdinf/internal/train"
	"github.com/kfrida1/csdinf/internal/winapi"
)

// Model and training types.
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
)

// Dataset types.
type (
	// Dataset is a labelled corpus of fixed-length API-call sequences.
	Dataset = dataset.Dataset
	// DatasetConfig controls corpus synthesis.
	DatasetConfig = dataset.BuildConfig
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
	// Inferencer is the stack-wide inference contract: context-aware
	// classification of live and SSD-resident sequences. Engine, Fleet,
	// and the Updater's hot-swap engine all implement it.
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

// Optimization levels (cumulative, Fig. 3), plus LevelMixed, the
// mixed-precision configuration of the paper's §VI future work: DSP-packed
// narrow gate MACs with a full-precision cell path, sized to fit the
// SmartSSD's own KU15P.
const (
	LevelVanilla    = kernels.LevelVanilla
	LevelII         = kernels.LevelII
	LevelFixedPoint = kernels.LevelFixedPoint
	LevelMixed      = kernels.LevelMixed
)

// Detector actions, the values of DetectorEvent.Action.
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

// Train fits a fresh classifier on trainDS, evaluating on testDS, and
// records the convergence trajectory (Fig. 4).
func Train(trainDS, testDS *Dataset, cfg TrainConfig) (*TrainResult, error) {
	return train.Train(trainDS, testDS, cfg)
}

// NewSmartSSD builds a simulated computational storage drive.
func NewSmartSSD(cfg CSDConfig) (*SmartSSD, error) { return csd.New(cfg) }

// Deploy initializes the CSD's FPGA with the trained model and returns the
// in-storage inference engine.
func Deploy(dev *SmartSSD, m *Model, cfg DeployConfig) (*Engine, error) {
	return core.Deploy(dev, m, cfg)
}

// NewDetector builds a streaming ransomware detector over a deployed
// engine, a fleet, or the Updater's hot-swap engine.
func NewDetector(pred Inferencer, cfg DetectorConfig) (*Detector, error) {
	return detect.New(pred, cfg)
}

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
	// AnalysisReport is a Cuckoo-style sandbox analysis report.
	AnalysisReport = report.Report
)

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

// Fleet types (the rack-scale serving layer).
type (
	// Fleet serves inference over N CSD nodes with tenant-aware placement
	// and device lifecycle flows.
	Fleet = fleet.Fleet
	// FleetConfig controls a fleet.
	FleetConfig = fleet.Config
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
// placement for untenanted requests, and drain/fail/rejoin lifecycle flows
// over the shared device registry. Each CSD keeps its registry ID
// ("csd-000", "csd-001", ...) across every layer: telemetry labels, trace
// track groups, incident attribution, and event device fields. Close the
// fleet to stop its device workers.
func NewFleet(m *Model, fleetCfg FleetConfig) (*Fleet, error) {
	return fleet.New(m, fleetCfg)
}
