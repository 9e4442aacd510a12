// Package cti implements the model-maintenance loop the paper prescribes
// for production deployments (§III-A): "it is advisable to update the
// FPGA-based model with a version that has been retrained on new ransomware
// strains once they are uncovered in Cyber Threat Intelligence (CTI)
// feeds."
//
// The loop is: a CTI feed delivers sandbox analysis reports of newly
// observed strains → the updater folds their windows into the training
// corpus → retrains the classifier → redeploys it to the CSD → atomically
// swaps the running detector onto the new engine. The FPGA bitstream never
// changes — the paper's kernel design "remains fixed regardless of changes
// in the number of parameters ... the FPGA-based model is compiled once and
// can be updated at the operator's discretion" — only the weight buffers
// reload.
package cti

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/metrics"
	"github.com/kfrida1/csdinf/internal/report"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/train"
)

// HotSwapEngine is an infer.Inferencer whose underlying inferencer can be
// replaced atomically while a detection stream is live. Reads are lock-free
// (an atomic pointer load); a swap becomes visible to the next request
// without stalling in-flight ones.
type HotSwapEngine struct {
	cur atomic.Pointer[holder]
	// swapMu serializes Swap calls so the SeqLen check and pointer store
	// are atomic with respect to other swappers (readers never take it).
	swapMu sync.Mutex

	// generation counts deployments (initial = 1); atomic so Generation()
	// stays lock-free for concurrent readers.
	generation atomic.Int64

	// swapsC and generationG start detached and are re-pointed at
	// registered instruments by Instrument; both guarded by swapMu.
	swapsC      *telemetry.Counter
	generationG *telemetry.Gauge

	// events, when non-nil, receives an info event per swap (guarded by
	// swapMu for writes; Swap reads it under the same lock).
	events *eventlog.Logger
}

// holder wraps the interface value so it can live behind atomic.Pointer.
type holder struct{ inf infer.Inferencer }

var _ infer.Inferencer = (*HotSwapEngine)(nil)

// NewHotSwapEngine wraps an initial inferencer.
func NewHotSwapEngine(inf infer.Inferencer) (*HotSwapEngine, error) {
	if inf == nil {
		return nil, errors.New("cti: nil engine")
	}
	h := &HotSwapEngine{}
	h.cur.Store(&holder{inf: inf})
	h.generation.Store(1)
	var noReg *telemetry.Registry
	h.swapsC = noReg.Counter("cti_swaps_total", "Model hot-swaps performed.")
	h.generationG = noReg.Gauge("cti_model_generation",
		"Generation of the live model (1 = initial deployment).")
	h.generationG.Set(1)
	return h, nil
}

// Instrument re-registers the engine's swap counter and model-generation
// gauge with reg, carrying over values accumulated while detached. It is
// safe against concurrent Swap calls and concurrent readers.
func (h *HotSwapEngine) Instrument(reg *telemetry.Registry) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	swaps := reg.Counter("cti_swaps_total", "Model hot-swaps performed.")
	gen := reg.Gauge("cti_model_generation",
		"Generation of the live model (1 = initial deployment).")
	swaps.Add(h.swapsC.Value())
	gen.Set(h.generation.Load())
	h.swapsC = swaps
	h.generationG = gen
}

// SetEvents attaches a structured event logger; each subsequent Swap emits
// an info "model.swap" event carrying the new generation, so incident
// reports can attribute verdicts to the model version that produced them.
func (h *HotSwapEngine) SetEvents(l *eventlog.Logger) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	h.events = l
}

// Generation returns the deployment generation of the live model (initial
// deployment = 1, incremented on every Swap). Lock-free.
func (h *HotSwapEngine) Generation() int64 { return h.generation.Load() }

// Predict delegates to the current inferencer.
func (h *HotSwapEngine) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	return h.cur.Load().inf.Predict(ctx, seq)
}

// PredictStored delegates to the current inferencer.
func (h *HotSwapEngine) PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, infer.Timing, error) {
	return h.cur.Load().inf.PredictStored(ctx, ssdOff)
}

// SeqLen returns the current inferencer's window length.
func (h *HotSwapEngine) SeqLen() int {
	return h.cur.Load().inf.SeqLen()
}

// Swap replaces the inferencer. The replacement must use the same window
// length (the hardware counter is fixed at synthesis time). In-flight
// requests finish on whichever engine they loaded; subsequent requests see
// the replacement.
func (h *HotSwapEngine) Swap(inf infer.Inferencer) error {
	if inf == nil {
		return errors.New("cti: nil engine")
	}
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	if cur := h.cur.Load().inf; inf.SeqLen() != cur.SeqLen() {
		return fmt.Errorf("cti: window length %d does not match deployed %d (fixed at synthesis)",
			inf.SeqLen(), cur.SeqLen())
	}
	h.cur.Store(&holder{inf: inf})
	h.swapsC.Inc()
	gen := h.generation.Add(1)
	h.generationG.Set(gen)
	h.events.Info(context.Background(), "cti", "model.swap",
		eventlog.F("generation", gen))
	return nil
}

// Engine returns the current inferencer (for inspection).
func (h *HotSwapEngine) Engine() infer.Inferencer {
	return h.cur.Load().inf
}

// heldOutFraction is the share of the corpus each retraining holds out for
// evaluation.
const heldOutFraction = 0.2

// Config controls the updater.
type Config struct {
	// Device is the CSD models are deployed to.
	Device *csd.SmartSSD
	// Deploy configures each deployment (level, part, window).
	Deploy core.DeployConfig
	// Train configures each retraining run.
	Train train.Config
	// Stride is the window stride for ingested traces; 0 defaults to the
	// dataset default.
	Stride int
	// Seed drives splits and shuffles.
	Seed int64
	// Telemetry, when non-nil, registers the hot-swap engine's
	// cti_swaps_total counter and cti_model_generation gauge, and is
	// threaded into each deployment unless Deploy.Telemetry is set.
	Telemetry *telemetry.Registry
	// Events, when non-nil, is attached to the hot-swap engine (one info
	// model.swap event per redeployment) and threaded into each deployment
	// unless Deploy.Events is set.
	Events *eventlog.Logger
}

// Updater maintains the corpus, retrains on new CTI samples, and hot-swaps
// the deployed model. It is safe for concurrent use with a live detector
// reading through the HotSwapEngine; Ingest itself must not be called
// concurrently.
type Updater struct {
	cfg        Config
	corpus     *dataset.Dataset
	hot        *HotSwapEngine
	generation int
	model      *lstm.Model
}

// UpdateResult summarizes one retraining generation.
type UpdateResult struct {
	// Generation counts deployments (initial = 1).
	Generation int
	// NewSequences is how many windows the ingested reports contributed.
	NewSequences int
	// CorpusSize is the corpus size after ingestion.
	CorpusSize int
	// Final is the held-out evaluation of the new model.
	Final metrics.Scores
}

// NewUpdater trains an initial model on the base corpus and deploys it.
func NewUpdater(base *dataset.Dataset, cfg Config) (*Updater, *UpdateResult, error) {
	if base == nil || len(base.Sequences) == 0 {
		return nil, nil, errors.New("cti: empty base corpus")
	}
	if cfg.Device == nil {
		return nil, nil, errors.New("cti: nil device")
	}
	if cfg.Deploy.Telemetry == nil {
		cfg.Deploy.Telemetry = cfg.Telemetry
	}
	if cfg.Deploy.Events == nil {
		cfg.Deploy.Events = cfg.Events
	}
	u := &Updater{cfg: cfg, corpus: base}
	res, err := u.retrainAndDeploy(0)
	if err != nil {
		return nil, nil, err
	}
	return u, res, nil
}

// Engine returns the hot-swappable engine to wire into a detector.
func (u *Updater) Engine() *HotSwapEngine { return u.hot }

// Model returns the most recently trained classifier (e.g. to replicate
// onto additional devices or nodes).
func (u *Updater) Model() *lstm.Model { return u.model }

// CorpusSize returns the current corpus size.
func (u *Updater) CorpusSize() int { return len(u.corpus.Sequences) }

// Ingest folds the CTI reports into the corpus, retrains, redeploys, and
// swaps the live engine.
func (u *Updater) Ingest(reports []*report.Report) (*UpdateResult, error) {
	if len(reports) == 0 {
		return nil, errors.New("cti: no reports to ingest")
	}
	var traces []dataset.LabeledTrace
	for i, r := range reports {
		trace, err := r.Trace()
		if err != nil {
			return nil, fmt.Errorf("cti: report %d: %w", i, err)
		}
		source := r.Target.Name
		if r.Target.Family != "" {
			source = fmt.Sprintf("%s.v%d", r.Target.Family, r.Target.Variant)
		}
		traces = append(traces, dataset.LabeledTrace{
			Items:      trace,
			Ransomware: r.Ransomware(),
			Source:     source,
		})
	}
	fresh, err := dataset.FromTraces(traces, u.corpus.Window, u.cfg.Stride, u.cfg.Seed+int64(u.generation))
	if err != nil {
		return nil, fmt.Errorf("cti: window reports: %w", err)
	}
	u.corpus.Sequences = append(u.corpus.Sequences, fresh.Sequences...)
	return u.retrainAndDeploy(len(fresh.Sequences))
}

func (u *Updater) retrainAndDeploy(newSeqs int) (*UpdateResult, error) {
	u.generation++
	trainDS, testDS, err := u.corpus.Split(heldOutFraction, u.cfg.Seed+int64(u.generation))
	if err != nil {
		return nil, fmt.Errorf("cti: split: %w", err)
	}
	tr, err := train.Train(trainDS, testDS, u.cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("cti: retrain generation %d: %w", u.generation, err)
	}
	eng, err := core.Deploy(u.cfg.Device, tr.Model, u.cfg.Deploy)
	if err != nil {
		return nil, fmt.Errorf("cti: deploy generation %d: %w", u.generation, err)
	}
	u.model = tr.Model
	if u.hot == nil {
		hot, err := NewHotSwapEngine(eng)
		if err != nil {
			return nil, err
		}
		if u.cfg.Telemetry != nil {
			hot.Instrument(u.cfg.Telemetry)
		}
		if u.cfg.Events != nil {
			hot.SetEvents(u.cfg.Events)
		}
		u.hot = hot
	} else if err := u.hot.Swap(eng); err != nil {
		return nil, err
	}
	return &UpdateResult{
		Generation:   u.generation,
		NewSequences: newSeqs,
		CorpusSize:   len(u.corpus.Sequences),
		Final:        tr.Final,
	}, nil
}
