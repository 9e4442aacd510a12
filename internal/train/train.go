// Package train is the offline training harness of §III-A: it fits the
// embedding+LSTM+FC classifier on an API-call dataset with Adam and full
// BPTT, records the convergence trajectory reported in the paper's Fig. 4,
// and evaluates the headline detection metrics of §IV.
package train

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/metrics"
	"github.com/kfrida1/csdinf/internal/winapi"
)

// clipNorm bounds per-timestep state gradients during BPTT.
const clipNorm = 5

// Config controls a training run.
type Config struct {
	// Epochs is the maximum number of passes over the training set; 0
	// defaults to 50.
	Epochs int
	// BatchSize is the mini-batch size; 0 defaults to 32.
	BatchSize int
	// LR is the Adam learning rate; 0 defaults to 3e-3.
	LR float64
	// Seed drives initialization and epoch shuffling.
	Seed int64
	// EmbedDim is the embedding size; 0 defaults to the paper's 8.
	EmbedDim int
	// HiddenSize is the LSTM width; 0 defaults to the paper's 32.
	HiddenSize int
	// CellActivation defaults to softsign (the FPGA-ready variant).
	CellActivation activation.Kind
	// EvalEvery records test metrics every N epochs; 0 defaults to 1.
	EvalEvery int
	// TargetAccuracy stops training early once test accuracy reaches it
	// (0 = run all epochs). The paper trains "until convergence".
	TargetAccuracy float64
}

func (c *Config) defaults() {
	if c.Epochs == 0 {
		c.Epochs = 50
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.EmbedDim == 0 {
		c.EmbedDim = 8
	}
	if c.HiddenSize == 0 {
		c.HiddenSize = 32
	}
	if c.CellActivation == 0 {
		c.CellActivation = activation.Softsign
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
}

// EpochRecord is one point of the Fig. 4 convergence curve.
type EpochRecord struct {
	// Epoch is the 1-based epoch index.
	Epoch int
	// TrainLoss is the mean binary cross-entropy over the epoch.
	TrainLoss float64
	// Test holds the held-out metrics at this epoch.
	Test metrics.Scores
}

// Result is a completed training run.
type Result struct {
	// Model is the trained classifier.
	Model *lstm.Model
	// History is the convergence trajectory (one record per evaluated
	// epoch) — the data behind Fig. 4.
	History []EpochRecord
	// Final is the held-out evaluation of the final model.
	Final metrics.Scores
	// FinalConfusion is the matrix behind Final.
	FinalConfusion metrics.Confusion
	// EpochsRun counts completed epochs (may be fewer than Config.Epochs
	// when TargetAccuracy fires).
	EpochsRun int
	// ReachedTarget reports whether TargetAccuracy stopped training.
	ReachedTarget bool
}

// Train fits a fresh model on trainDS and evaluates on testDS.
func Train(trainDS, testDS *dataset.Dataset, cfg Config) (*Result, error) {
	if trainDS == nil || len(trainDS.Sequences) == 0 {
		return nil, errors.New("train: empty training set")
	}
	if testDS == nil || len(testDS.Sequences) == 0 {
		return nil, errors.New("train: empty test set")
	}
	cfg.defaults()
	if cfg.Epochs < 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("train: bad epochs/batch (%d, %d)", cfg.Epochs, cfg.BatchSize)
	}

	model, err := lstm.NewModel(lstm.Config{
		VocabSize:      winapi.VocabSize,
		EmbedDim:       cfg.EmbedDim,
		HiddenSize:     cfg.HiddenSize,
		CellActivation: cfg.CellActivation,
	}, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}

	opt := &lstm.Adam{LR: cfg.LR}
	grads := model.NewGrads()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	order := make([]int, len(trainDS.Sequences))
	for i := range order {
		order[i] = i
	}

	res := &Result{Model: model}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			grads.Zero()
			for _, idx := range order[start:end] {
				s := trainDS.Sequences[idx]
				br, err := model.Backward(s.Items, s.Ransomware, grads, clipNorm)
				if err != nil {
					return nil, fmt.Errorf("train: epoch %d: %w", epoch, err)
				}
				lossSum += br.Loss
			}
			if err := opt.Apply(model, grads, end-start); err != nil {
				return nil, fmt.Errorf("train: epoch %d: %w", epoch, err)
			}
		}
		res.EpochsRun = epoch

		if epoch%cfg.EvalEvery == 0 || epoch == cfg.Epochs {
			conf, err := Evaluate(model, testDS)
			if err != nil {
				return nil, fmt.Errorf("train: evaluate epoch %d: %w", epoch, err)
			}
			rec := EpochRecord{
				Epoch:     epoch,
				TrainLoss: lossSum / float64(len(order)),
				Test:      conf.Scores(),
			}
			res.History = append(res.History, rec)
			res.Final = rec.Test
			res.FinalConfusion = conf
			if cfg.TargetAccuracy > 0 && rec.Test.Accuracy >= cfg.TargetAccuracy {
				res.ReachedTarget = true
				break
			}
		}
	}
	if len(res.History) == 0 {
		conf, err := Evaluate(model, testDS)
		if err != nil {
			return nil, fmt.Errorf("train: evaluate: %w", err)
		}
		res.Final = conf.Scores()
		res.FinalConfusion = conf
	}
	return res, nil
}

// Evaluate runs the model over every sequence of ds and returns the
// confusion matrix at threshold 0.5.
func Evaluate(m *lstm.Model, ds *dataset.Dataset) (metrics.Confusion, error) {
	if m == nil {
		return metrics.Confusion{}, errors.New("train: nil model")
	}
	if ds == nil || len(ds.Sequences) == 0 {
		return metrics.Confusion{}, errors.New("train: empty evaluation set")
	}
	var conf metrics.Confusion
	for i, s := range ds.Sequences {
		pred, _, err := m.Predict(s.Items)
		if err != nil {
			return metrics.Confusion{}, fmt.Errorf("train: sequence %d: %w", i, err)
		}
		conf.Observe(pred, s.Ransomware)
	}
	return conf, nil
}

// BestAccuracy returns the peak test accuracy across the history and the
// epoch it occurred at — the paper's "peak detection accuracy of 0.9833 at
// around 4K epochs" readout.
func (r *Result) BestAccuracy() (acc float64, epoch int) {
	for _, rec := range r.History {
		if rec.Test.Accuracy > acc {
			acc, epoch = rec.Test.Accuracy, rec.Epoch
		}
	}
	return acc, epoch
}

// Score runs the model over ds and returns per-sequence scored predictions
// for threshold-independent evaluation (ROC/AUC, threshold sweeps).
func Score(m *lstm.Model, ds *dataset.Dataset) ([]metrics.ScoredPrediction, error) {
	if m == nil {
		return nil, errors.New("train: nil model")
	}
	if ds == nil || len(ds.Sequences) == 0 {
		return nil, errors.New("train: empty evaluation set")
	}
	out := make([]metrics.ScoredPrediction, len(ds.Sequences))
	for i, s := range ds.Sequences {
		p, err := m.Forward(s.Items)
		if err != nil {
			return nil, fmt.Errorf("train: sequence %d: %w", i, err)
		}
		out[i] = metrics.ScoredPrediction{Probability: p, Actual: s.Ransomware}
	}
	return out, nil
}
