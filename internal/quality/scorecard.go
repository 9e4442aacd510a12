package quality

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/metrics"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Component is the eventlog component for scorecard events.
const Component = "quality"

// Event names emitted by the scorecard.
const (
	// EventDriftDetected fires on the edge where the live score
	// distribution's PSI against the reference crosses the threshold.
	EventDriftDetected = "quality.drift.detected"
	// EventDriftCleared fires on the edge where PSI drops back below the
	// threshold.
	EventDriftCleared = "quality.drift.cleared"
)

// Thresholds and retention bounds.
const (
	// DriftThreshold is the PSI above which the score distribution counts
	// as drifted; 0.2 is the conventional "significant shift" boundary for
	// population-stability monitoring.
	DriftThreshold = 0.2
	// MinDriftSamples guards the PSI against low-count noise: with fewer
	// live observations than this, drift is never declared.
	MinDriftSamples = 200
	// BytesPerWindow is the simulated write volume behind one
	// classification window: a window spans Stride API calls of which a
	// handful are file writes, modeled as 4 × 64 KiB chunks. It converts
	// windows-until-block into the bytes-written-before-mitigation number
	// the related work reports.
	BytesPerWindow = 4 * 64 * 1024
	// MaxFamilies bounds the per-family breakdown (10 emulated families +
	// benign archetypes + unknown); extra families fold into FamilyOther.
	MaxFamilies = 16
	// MaxProcesses bounds the per-PID latency-tracking map; new PIDs
	// beyond it are still scored in the confusion matrix but their
	// windows-to-flag latency is dropped (and counted). The map is the
	// scorecard's own, not a fold over detect.Mux's: csdload feeds the
	// scorecard up to 2000 PIDs with no mux in front.
	MaxProcesses = 8192
	// maxLatencySamples bounds the raw windows-to-flag / bytes-at-risk
	// sample slices the quantiles are computed from.
	maxLatencySamples = 65536
)

// FamilyOther absorbs families beyond the MaxFamilies bound.
const FamilyOther = "other"

// Verdict is one classified window as seen by the scorecard: the
// detector's probability and decision for one process at one window.
type Verdict struct {
	// PID identifies the process, keying detection-latency tracking.
	PID int
	// Probability is the model score in [0,1].
	Probability float64
	// Flagged is the detector's decision for this window (alert or
	// block).
	Flagged bool
	// Blocked is true when this window latched the process-level block
	// (mitigation fired).
	Blocked bool
}

// Config wires a Scorecard into the observability stack. All fields are
// optional.
type Config struct {
	// Telemetry receives quality_* series.
	Telemetry *telemetry.Registry
	// Events receives quality-component events (drift edges).
	Events *eventlog.Logger
	// SLO, when non-nil, receives every labeled verdict; wire
	// slo.Evaluator.Quality here so recall / false-positive-rate
	// objectives burn on misclassification. (A func hook rather than a
	// typed dependency: slo sits above quality in the import order.)
	SLO func(truth, flagged bool)
	// Reference is the pinned score distribution drift is judged
	// against; nil disables the drift detector.
	Reference *Reference
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// familyState is one family's slice of the scorecard.
type familyState struct {
	confusion metrics.Confusion
	windows   int64
}

// procState tracks one PID's detection latency.
type procState struct {
	truth   bool
	labeled bool
	windows int64 // classified windows seen so far
	flagged bool
	blocked bool
}

// Scorecard is the concurrency-safe online detection-quality aggregate.
// A nil *Scorecard is inert, like every other observability hook in the
// stack.
type Scorecard struct {
	cfg Config

	mu        sync.Mutex
	total     metrics.Confusion
	families  map[string]*familyState
	procs     map[int]*procState
	windows   int64 // all observed windows, labeled or not
	unlabeled int64
	flagged   int64 // processes flagged at least once
	blocked   int64 // processes blocked
	dropped   int64 // PIDs beyond MaxProcesses whose latency is untracked
	scoreBins [ScoreBins]int64
	scoreN    int64
	toFlag    []float64 // windows-until-flagged per true-positive process
	atRisk    []float64 // simulated bytes written before block
	drifted   bool

	// Telemetry series (nil when Config.Telemetry is nil).
	windowsC   *telemetry.Counter
	unlabeledC *telemetry.Counter
	outcomeC   map[string]*telemetry.Counter // tp/fp/tn/fn
	psiG       *telemetry.Gauge
	driftG     *telemetry.Gauge
	toFlagH    *telemetry.Histogram
}

// New builds a scorecard.
func New(cfg Config) (*Scorecard, error) {
	if cfg.Reference != nil {
		if err := cfg.Reference.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Scorecard{
		cfg:      cfg,
		families: make(map[string]*familyState),
		procs:    make(map[int]*procState),
	}
	// A nil registry hands back inert series, so the scorecard never has
	// to branch on whether telemetry is wired.
	r := cfg.Telemetry
	s.windowsC = r.Counter("quality_windows_total", "classified windows seen by the scorecard")
	s.unlabeledC = r.Counter("quality_unlabeled_total", "windows observed without a ground-truth label")
	s.outcomeC = make(map[string]*telemetry.Counter, 4)
	for _, o := range []string{"tp", "fp", "tn", "fn"} {
		s.outcomeC[o] = r.Counter("quality_verdicts_total",
			"labeled verdicts by confusion outcome", telemetry.L("outcome", o))
	}
	s.psiG = r.Gauge("quality_drift_psi_permille", "score-distribution PSI against the pinned reference, x1000")
	s.driftG = r.Gauge("quality_drifted", "1 while the score distribution is drifted past the PSI threshold")
	s.toFlagH = r.Histogram("quality_windows_to_flag",
		"windows from first sight to first flag, per detected ransomware process",
		telemetry.DefaultCountBuckets())
	return s, nil
}

// Observe folds one classified window into the scorecard. The context
// carries the ground-truth label (if any) stamped upstream by WithLabel.
// Safe for concurrent use; inert on a nil receiver.
func (s *Scorecard) Observe(ctx context.Context, v Verdict) {
	if s == nil {
		return
	}
	lbl, labeled := LabelFrom(ctx)

	var driftEdge, nowDrifted bool
	var psi float64
	var samples int64

	s.mu.Lock()
	s.windows++
	if bin := scoreBin(v.Probability); bin >= 0 {
		s.scoreBins[bin]++
		s.scoreN++
	}
	outcome := ""
	if labeled {
		s.total.Observe(v.Flagged, lbl.Truth)
		outcome = outcomeName(v.Flagged, lbl.Truth)
		fam := s.familyLocked(lbl.Family)
		fam.confusion.Observe(v.Flagged, lbl.Truth)
		fam.windows++
	} else {
		s.unlabeled++
	}
	var toFlag float64
	var haveToFlag bool
	if st := s.procLocked(v.PID, lbl, labeled); st != nil {
		st.windows++
		if v.Flagged && !st.flagged {
			st.flagged = true
			s.flagged++
			if st.labeled && st.truth {
				toFlag, haveToFlag = float64(st.windows), true
				s.sampleLocked(&s.toFlag, toFlag)
			}
		}
		if v.Blocked && !st.blocked {
			st.blocked = true
			s.blocked++
			if st.labeled && st.truth {
				s.sampleLocked(&s.atRisk, float64(st.windows)*BytesPerWindow)
			}
		}
	}
	samples = s.scoreN
	if s.cfg.Reference != nil && s.scoreN >= MinDriftSamples {
		psi = PSI(s.cfg.Reference.Bins, proportions(s.scoreBins[:], s.scoreN))
		nowDrifted = psi > DriftThreshold
		driftEdge = nowDrifted != s.drifted
		s.drifted = nowDrifted
	}
	s.mu.Unlock()

	// Telemetry and hooks outside the lock.
	s.windowsC.Inc()
	if outcome != "" {
		s.outcomeC[outcome].Inc()
	} else {
		s.unlabeledC.Inc()
	}
	if haveToFlag {
		s.toFlagH.Observe(int64(toFlag))
	}
	if s.cfg.Reference != nil {
		s.psiG.Set(int64(psi * 1000))
		if nowDrifted {
			s.driftG.Set(1)
		} else {
			s.driftG.Set(0)
		}
	}
	if labeled && s.cfg.SLO != nil {
		s.cfg.SLO(lbl.Truth, v.Flagged)
	}
	if driftEdge && s.cfg.Events != nil {
		name := EventDriftCleared
		lvl := eventlog.LevelInfo
		if nowDrifted {
			name = EventDriftDetected
			lvl = eventlog.LevelWarn
		}
		s.cfg.Events.Log(ctx, lvl, Component, name,
			eventlog.F("psi", psi),
			eventlog.F("threshold", DriftThreshold),
			eventlog.F("reference", s.cfg.Reference.Name),
			eventlog.F("samples", samples))
	}
}

// familyLocked returns (creating if within bounds) the per-family state;
// beyond MaxFamilies everything folds into FamilyOther.
func (s *Scorecard) familyLocked(family string) *familyState {
	if family == "" {
		family = FamilyUnknown
	}
	st, ok := s.families[family]
	if !ok {
		if len(s.families) >= MaxFamilies {
			family = FamilyOther
			if st, ok = s.families[family]; ok {
				return st
			}
		}
		st = &familyState{}
		s.families[family] = st
	}
	return st
}

// procLocked returns (creating if within bounds) per-PID latency state;
// nil when the PID map is full and this PID is new.
func (s *Scorecard) procLocked(pid int, lbl Label, labeled bool) *procState {
	st, ok := s.procs[pid]
	if !ok {
		if len(s.procs) >= MaxProcesses {
			s.dropped++
			return nil
		}
		st = &procState{truth: lbl.Truth, labeled: labeled}
		s.procs[pid] = st
	} else if labeled && !st.labeled {
		st.labeled, st.truth = true, lbl.Truth
	}
	return st
}

func (s *Scorecard) sampleLocked(dst *[]float64, v float64) {
	if len(*dst) >= maxLatencySamples {
		return
	}
	*dst = append(*dst, v)
}

func outcomeName(flagged, truth bool) string {
	switch {
	case flagged && truth:
		return "tp"
	case flagged && !truth:
		return "fp"
	case !flagged && truth:
		return "fn"
	default:
		return "tn"
	}
}

// ConfusionSnapshot is a confusion matrix with its derived rates.
type ConfusionSnapshot struct {
	TP int `json:"tp"`
	FP int `json:"fp"`
	TN int `json:"tn"`
	FN int `json:"fn"`
	// Rates are zero when their denominator is zero.
	Accuracy  float64 `json:"accuracy"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	// FPR is FP / (FP + TN): the fraction of benign windows flagged.
	FPR float64 `json:"fpr"`
}

func confusionSnapshot(c metrics.Confusion) ConfusionSnapshot {
	out := ConfusionSnapshot{
		TP: c.TP, FP: c.FP, TN: c.TN, FN: c.FN,
		Accuracy: c.Accuracy(), Precision: c.Precision(),
		Recall: c.Recall(), F1: c.F1(),
	}
	if c.FP+c.TN > 0 {
		out.FPR = float64(c.FP) / float64(c.FP+c.TN)
	}
	return out
}

// FamilySnapshot is one family's confusion slice.
type FamilySnapshot struct {
	Family string `json:"family"`
	ConfusionSnapshot
	Windows int64 `json:"windows"`
}

// LatencySnapshot summarizes a detection-latency sample (windows-to-flag
// or bytes-at-risk).
type LatencySnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func latencySnapshot(sample []float64) LatencySnapshot {
	out := LatencySnapshot{Count: int64(len(sample))}
	if len(sample) == 0 {
		return out
	}
	sum, err := metrics.Summarize(sample)
	if err != nil {
		return out
	}
	out.Mean, out.P50, out.Max = sum.Mean, sum.Median, sum.Max
	out.P99 = quantile(sample, 0.99)
	return out
}

// quantile returns the nearest-rank q-quantile of the sample.
func quantile(sample []float64, q float64) float64 {
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// ScoreBinSnapshot is one bin of the live score distribution.
type ScoreBinSnapshot struct {
	Low      float64 `json:"low"`
	High     float64 `json:"high"`
	Count    int64   `json:"count"`
	Fraction float64 `json:"fraction"`
}

// DriftSnapshot is the drift detector's judgment.
type DriftSnapshot struct {
	// Reference names the pinned distribution; empty when no reference
	// is configured (PSI is then always 0 and Drifted false).
	Reference string `json:"reference"`
	// RefSamples is the sample count the reference was built from.
	RefSamples int64 `json:"ref_samples"`
	// PSI is the population-stability index of live vs reference.
	PSI float64 `json:"psi"`
	// Threshold is the drift boundary, DriftThreshold.
	Threshold float64 `json:"threshold"`
	// Drifted is true while PSI exceeds the threshold (and the low-count
	// guard is satisfied).
	Drifted bool `json:"drifted"`
	// LowCount is true while too few live scores have been seen to judge
	// drift.
	LowCount bool `json:"low_count"`
}

// ProcessSnapshot summarizes per-PID tracking.
type ProcessSnapshot struct {
	Tracked int64 `json:"tracked"`
	Flagged int64 `json:"flagged"`
	Blocked int64 `json:"blocked"`
	// Dropped counts PIDs whose latency went untracked because the
	// process map hit its bound.
	Dropped int64 `json:"dropped"`
}

// Snapshot is the scorecard's full exported state — the /quality.json
// document. Zero state serializes with empty slices, never null.
type Snapshot struct {
	Time      time.Time         `json:"time"`
	Windows   int64             `json:"windows"`
	Labeled   int64             `json:"labeled"`
	Unlabeled int64             `json:"unlabeled"`
	Total     ConfusionSnapshot `json:"confusion"`
	Families  []FamilySnapshot  `json:"families"`
	Processes ProcessSnapshot   `json:"processes"`
	// WindowsToFlag is the detection-latency distribution: classified
	// windows from first sight to first flag, per detected ransomware
	// process.
	WindowsToFlag LatencySnapshot `json:"windows_to_flag"`
	// BytesAtRisk simulates the write volume a blocked ransomware
	// process got through before mitigation (windows-until-block ×
	// bytes-per-window).
	BytesAtRisk LatencySnapshot    `json:"bytes_at_risk"`
	ScoreBins   []ScoreBinSnapshot `json:"score_bins"`
	Drift       DriftSnapshot      `json:"drift"`
}

// Snapshot exports the scorecard's current state. Safe for concurrent use
// with Observe; returns a fully zeroed (but non-null) document on a nil
// receiver or before any observation.
func (s *Scorecard) Snapshot() Snapshot {
	out := Snapshot{
		Families:  []FamilySnapshot{},
		ScoreBins: make([]ScoreBinSnapshot, ScoreBins),
	}
	for i := range out.ScoreBins {
		out.ScoreBins[i].Low = float64(i) / ScoreBins
		out.ScoreBins[i].High = float64(i+1) / ScoreBins
	}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Time = s.cfg.Clock()
	out.Windows = s.windows
	out.Unlabeled = s.unlabeled
	out.Labeled = s.windows - s.unlabeled
	out.Total = confusionSnapshot(s.total)
	for name, st := range s.families {
		fs := FamilySnapshot{Family: name, Windows: st.windows}
		fs.ConfusionSnapshot = confusionSnapshot(st.confusion)
		out.Families = append(out.Families, fs)
	}
	sort.Slice(out.Families, func(i, j int) bool { return out.Families[i].Family < out.Families[j].Family })
	out.Processes = ProcessSnapshot{
		Tracked: int64(len(s.procs)), Flagged: s.flagged,
		Blocked: s.blocked, Dropped: s.dropped,
	}
	out.WindowsToFlag = latencySnapshot(s.toFlag)
	out.BytesAtRisk = latencySnapshot(s.atRisk)
	for i, n := range s.scoreBins {
		out.ScoreBins[i].Count = n
		if s.scoreN > 0 {
			out.ScoreBins[i].Fraction = float64(n) / float64(s.scoreN)
		}
	}
	out.Drift.Threshold = DriftThreshold
	if ref := s.cfg.Reference; ref != nil {
		out.Drift.Reference = ref.Name
		out.Drift.RefSamples = ref.Samples
		out.Drift.LowCount = s.scoreN < MinDriftSamples
		if !out.Drift.LowCount {
			out.Drift.PSI = PSI(ref.Bins, proportions(s.scoreBins[:], s.scoreN))
			out.Drift.Drifted = out.Drift.PSI > DriftThreshold
		}
	}
	return out
}
