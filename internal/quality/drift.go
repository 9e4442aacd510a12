package quality

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// ScoreBins is the number of equal-width probability bins the live score
// distribution (and every Reference) is discretized into over [0,1].
const ScoreBins = 10

// psiEpsilon floors bin proportions before the log-ratio so empty bins on
// either side contribute a large-but-finite PSI term instead of ±Inf.
const psiEpsilon = 1e-4

// scoreBin maps a probability to its bin index, or -1 for out-of-range
// garbage (NaN, negative, >1). Probability 1.0 lands in the top bin.
func scoreBin(p float64) int {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return -1
	}
	bin := int(p * ScoreBins)
	if bin == ScoreBins {
		bin = ScoreBins - 1
	}
	return bin
}

// proportions converts bin counts to fractions of the total.
func proportions(bins []int64, total int64) []float64 {
	out := make([]float64, len(bins))
	if total <= 0 {
		return out
	}
	for i, n := range bins {
		out[i] = float64(n) / float64(total)
	}
	return out
}

// PSI computes the population-stability index between a reference and a
// live proportion vector: Σ (live_i − ref_i) · ln(live_i / ref_i), with
// both sides floored at a small epsilon. By convention PSI < 0.1 is
// stable, 0.1–0.2 a moderate shift, > 0.2 a significant one. Mismatched
// lengths return +Inf (a misconfigured reference should scream, not pass).
func PSI(ref, live []float64) float64 {
	if len(ref) != len(live) {
		return math.Inf(1)
	}
	var psi float64
	for i := range ref {
		r := math.Max(ref[i], psiEpsilon)
		l := math.Max(live[i], psiEpsilon)
		psi += (l - r) * math.Log(l/r)
	}
	return psi
}

// Reference is a pinned score distribution: the proportion of verdict
// probabilities per bin observed in a known-good run, checked in under
// bench-results/ and compared against live traffic by the drift detector.
type Reference struct {
	// Name identifies the reference run (shown in drift events and the
	// /quality.json document).
	Name string `json:"name"`
	// Samples is the number of scores the reference was built from.
	Samples int64 `json:"samples"`
	// Bins are the per-bin proportions; must have length ScoreBins and
	// sum to ~1.
	Bins []float64 `json:"bins"`
}

// Validate checks the reference is usable for PSI comparison.
func (r *Reference) Validate() error {
	if r == nil {
		return fmt.Errorf("quality: nil reference")
	}
	if len(r.Bins) != ScoreBins {
		return fmt.Errorf("quality: reference %q has %d bins, want %d", r.Name, len(r.Bins), ScoreBins)
	}
	var sum float64
	for i, b := range r.Bins {
		if math.IsNaN(b) || b < 0 {
			return fmt.Errorf("quality: reference %q bin %d is %v", r.Name, i, b)
		}
		sum += b
	}
	if math.Abs(sum-1) > 0.01 {
		return fmt.Errorf("quality: reference %q bins sum to %v, want ~1", r.Name, sum)
	}
	return nil
}

// NewReference builds a reference from raw scores (e.g. an offline
// known-good run) — the counterpart of LoadReference for generating the
// pinned file in the first place.
func NewReference(name string, scores []float64) (*Reference, error) {
	var bins [ScoreBins]int64
	var total int64
	for _, p := range scores {
		if b := scoreBin(p); b >= 0 {
			bins[b]++
			total++
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("quality: reference %q built from zero in-range scores", name)
	}
	return &Reference{Name: name, Samples: total, Bins: proportions(bins[:], total)}, nil
}

// ReferenceFrom pins a snapshot's live score distribution as a reference —
// how a known-good run (e.g. csdbench's quality experiment) becomes the
// checked-in baseline future runs drift against.
func ReferenceFrom(name string, snap Snapshot) (*Reference, error) {
	bins := make([]float64, len(snap.ScoreBins))
	var total int64
	for i, b := range snap.ScoreBins {
		bins[i] = b.Fraction
		total += b.Count
	}
	if total == 0 {
		return nil, fmt.Errorf("quality: reference %q built from an empty snapshot", name)
	}
	r := &Reference{Name: name, Samples: total, Bins: bins}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// LoadReference reads a pinned reference distribution from a JSON file.
func LoadReference(path string) (*Reference, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("quality: read reference: %w", err)
	}
	var r Reference
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("quality: parse reference %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteReference writes a reference distribution as indented JSON.
func WriteReference(path string, r *Reference) error {
	if err := r.Validate(); err != nil {
		return err
	}
	return telemetry.WriteJSONFile(path, r)
}
