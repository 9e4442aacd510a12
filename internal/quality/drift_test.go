package quality

import (
	"math"
	"path/filepath"
	"testing"
)

func TestScoreBin(t *testing.T) {
	cases := []struct {
		p    float64
		want int
	}{
		{0, 0}, {0.05, 0}, {0.1, 1}, {0.55, 5}, {0.99, 9}, {1.0, 9},
		{-0.1, -1}, {1.1, -1}, {math.NaN(), -1},
	}
	for _, c := range cases {
		if got := scoreBin(c.p); got != c.want {
			t.Errorf("scoreBin(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestPSIGolden pins the drift metric against hand-checkable distributions:
// identical distributions score ~0, a hard shift scores past the 0.2
// significance boundary, and a mismatched reference screams +Inf.
func TestPSIGolden(t *testing.T) {
	uniform := make([]float64, ScoreBins)
	for i := range uniform {
		uniform[i] = 1.0 / ScoreBins
	}
	if psi := PSI(uniform, uniform); psi > 1e-9 {
		t.Errorf("PSI(identical) = %v, want ~0", psi)
	}

	// All mass moved into the top bin: a catastrophic shift, far past 0.2.
	shifted := make([]float64, ScoreBins)
	shifted[ScoreBins-1] = 1
	if psi := PSI(uniform, shifted); psi <= DriftThreshold {
		t.Errorf("PSI(uniform -> point mass) = %v, want > %v", psi, DriftThreshold)
	}

	// A mild perturbation stays under the significance boundary.
	mild := append([]float64(nil), uniform...)
	mild[0] += 0.02
	mild[1] -= 0.02
	if psi := PSI(uniform, mild); psi >= 0.1 {
		t.Errorf("PSI(mild 2%% shift) = %v, want < 0.1", psi)
	}

	if psi := PSI(uniform[:3], uniform); !math.IsInf(psi, 1) {
		t.Errorf("PSI(mismatched lengths) = %v, want +Inf", psi)
	}

	// PSI is symmetric in sign of contribution: swapping arguments gives
	// the same value (each term is (l-r)ln(l/r) = (r-l)ln(r/l)).
	if a, b := PSI(uniform, shifted), PSI(shifted, uniform); math.Abs(a-b) > 1e-9 {
		t.Errorf("PSI asymmetric: %v vs %v", a, b)
	}
}

func TestReferenceValidate(t *testing.T) {
	good := make([]float64, ScoreBins)
	for i := range good {
		good[i] = 1.0 / ScoreBins
	}
	cases := []struct {
		name string
		ref  *Reference
		ok   bool
	}{
		{"nil", nil, false},
		{"good", &Reference{Name: "g", Samples: 10, Bins: good}, true},
		{"short", &Reference{Name: "s", Bins: good[:5]}, false},
		{"negative", &Reference{Name: "n", Bins: append([]float64{-0.1}, good[1:]...)}, false},
		{"sum", &Reference{Name: "sum", Bins: append([]float64{0.5}, good[1:]...)}, false},
	}
	for _, c := range cases {
		err := c.ref.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewReference(t *testing.T) {
	scores := []float64{0.05, 0.05, 0.95, 0.95, math.NaN(), -1, 2}
	ref, err := NewReference("unit", scores)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Samples != 4 {
		t.Errorf("samples %d, want 4 (out-of-range scores dropped)", ref.Samples)
	}
	if ref.Bins[0] != 0.5 || ref.Bins[ScoreBins-1] != 0.5 {
		t.Errorf("bins %v, want half in bin 0 and half in the top bin", ref.Bins)
	}
	if _, err := NewReference("empty", []float64{math.NaN()}); err == nil {
		t.Error("NewReference accepted zero in-range scores")
	}
}

func TestReferenceFromSnapshot(t *testing.T) {
	card, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithLabel(t.Context(), Label{Truth: false, Family: "benign"})
	for i := 0; i < 50; i++ {
		card.Observe(ctx, Verdict{PID: 1, Probability: 0.15})
	}
	ref, err := ReferenceFrom("pinned", card.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Samples != 50 || ref.Bins[1] != 1 {
		t.Errorf("reference %+v, want 50 samples all in bin 1", ref)
	}
	if _, err := ReferenceFrom("empty", Snapshot{}); err == nil {
		t.Error("ReferenceFrom accepted an empty snapshot")
	}
}

func TestReferenceFileRoundTrip(t *testing.T) {
	ref, err := NewReference("roundtrip", []float64{0.1, 0.2, 0.3, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := WriteReference(path, ref); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReference(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != ref.Name || back.Samples != ref.Samples {
		t.Errorf("round-trip lost identity: %+v vs %+v", back, ref)
	}
	for i := range ref.Bins {
		if back.Bins[i] != ref.Bins[i] {
			t.Errorf("bin %d: %v vs %v", i, back.Bins[i], ref.Bins[i])
		}
	}
	if _, err := LoadReference(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("LoadReference succeeded on a missing file")
	}
}
