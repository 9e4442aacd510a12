package kernels

import (
	"slices"
	"testing"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/lstm"
)

// fuzzScales covers the paper's scale, which takes the constant-divisor
// rescale, and two others that take the generic one.
var fuzzScales = []int64{fixed.DefaultScale, 1 << 12, 10_000}

// FuzzFixedFastMatchesShadow is the differential oracle for the
// LevelFixedPoint hot path. The shadow datapath (stepFixedProbed with a no-op
// probe) computes row by row on the checked ops that internal/absint proves
// sound; the fast path computes through gate-major MatVec, the
// constant-scale rescale and preallocated scratch. After every item the two
// must agree bit for bit on the Result, the simulated cycles and the
// recurrent state, including when amplified weights wrap the int64
// accumulators.
func FuzzFixedFastMatchesShadow(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(32), uint8(100), uint8(0), uint8(0), []byte{1, 2, 3, 250, 7, 9})
	f.Add(int64(2), uint8(3), uint8(5), uint8(7), uint8(1), uint8(4), []byte{0, 0, 0, 255})
	f.Add(int64(3), uint8(7), uint8(9), uint8(1), uint8(2), uint8(30), []byte{5, 4, 3, 2, 1, 0, 9, 8})
	f.Fuzz(func(t *testing.T, seed int64, embed, hidden, seqLen, scaleIdx, gain uint8, items []byte) {
		if len(items) == 0 {
			return
		}
		if len(items) > 256 {
			items = items[:256]
		}
		cfg := lstm.Config{
			VocabSize:      23,
			EmbedDim:       1 + int(embed)%9,
			HiddenSize:     1 + int(hidden)%33,
			CellActivation: activation.Softsign,
		}
		m, err := lstm.NewModel(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Amplify by up to 2^31 so large gains saturate the PLAN segments
		// and wrap the accumulators.
		amp := float64(uint64(1) << (gain % 32))
		params := [][]float64{m.Embedding.Data, m.FCW}
		for _, g := range m.Gates {
			params = append(params, g.Wx.Data, g.Wh.Data, g.B)
		}
		for _, fs := range params {
			for i := range fs {
				fs[i] *= amp
			}
		}

		pc := Config{Level: LevelFixedPoint, SeqLen: 1 + int(seqLen)%110, Scale: fuzzScales[int(scaleIdx)%len(fuzzScales)]}
		fast, err := New(m, pc)
		if err != nil {
			t.Skipf("deploy: %v", err)
		}
		shadow, err := New(m, pc)
		if err != nil {
			t.Fatal(err)
		}
		shadow.SetNumericProbe(func(string, fixed.Value, error) {})

		for k, b := range items {
			item := int(b) % cfg.VocabSize
			rf, df, errF := fast.ProcessItem(item)
			rs, ds, errS := shadow.ProcessItem(item)
			if errF != nil || errS != nil {
				t.Fatalf("item %d: errors %v / %v", k, errF, errS)
			}
			if rf != rs || df != ds {
				t.Fatalf("item %d: fast (%+v, %v), shadow (%+v, %v)", k, rf, df, rs, ds)
			}
			if !slices.Equal(fast.hQ, shadow.hQ) || !slices.Equal(fast.cQ, shadow.cQ) {
				t.Fatalf("item %d: state diverged\nfast   h=%v c=%v\nshadow h=%v c=%v", k, fast.hQ, fast.cQ, shadow.hQ, shadow.cQ)
			}
			_, _, _, cf := fast.ItemCycles()
			_, _, _, cs := shadow.ItemCycles()
			if cf != cs {
				t.Fatalf("item %d: cycles per item %d, shadow %d", k, cf, cs)
			}
		}

		seq := make([]int, pc.SeqLen)
		for i := range seq {
			seq[i] = int(items[i%len(items)]) % cfg.VocabSize
		}
		rf, cf, errF := fast.Classify(seq)
		rs, cs, errS := shadow.Classify(seq)
		if errF != nil || errS != nil {
			t.Fatalf("classify: errors %v / %v", errF, errS)
		}
		if rf != rs || cf != cs {
			t.Fatalf("classify: fast (%+v, %d cycles), shadow (%+v, %d cycles)", rf, cf, rs, cs)
		}
	})
}

// TestClassifyAllocFree pins the zero-allocation contract of the per-item
// step at every optimization level: all scratch lives in the Pipeline.
func TestClassifyAllocFree(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = (i * 37) % m.Config().VocabSize
	}
	for _, level := range []OptLevel{LevelVanilla, LevelII, LevelFixedPoint, LevelMixed} {
		p, err := New(m, Config{Level: level, SeqLen: len(seq)})
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		var classifyErr error
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := p.Classify(seq); err != nil {
				classifyErr = err
			}
		})
		if classifyErr != nil {
			t.Fatalf("%s: %v", level, classifyErr)
		}
		if allocs != 0 {
			t.Errorf("%s: Classify allocates %.1f times per window, want 0", level, allocs)
		}
	}
}
