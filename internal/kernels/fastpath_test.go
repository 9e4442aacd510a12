package kernels

import (
	"slices"
	"testing"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/dataset"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/train"
)

// fuzzScales covers the paper's scale, which takes the constant-divisor
// rescale, and two others that take the generic one.
var fuzzScales = []int64{fixed.DefaultScale, 1 << 12, 10_000}

// FuzzFixedFastMatchesShadow is the differential oracle for the
// LevelFixedPoint hot path. The shadow datapath (stepFixedProbed with a no-op
// probe) computes row by row from qEmbed, qWx and qB on the checked ops that
// internal/absint proves sound, and never reads the input-projection table:
// it runs on parameters with the table removed, so a read would panic
// (TestProbedPathIgnoresXProj pins the same on the paper model). The fast
// side is a Clone, so it reads the shared, bias-folded table and computes
// Wh·h through gate-major MatVec, the constant-scale rescale and its own
// scratch. After every item the two must agree bit for bit on the Result,
// the simulated cycles and the recurrent state, including when amplified
// weights wrap the int64 accumulators.
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
		base, err := New(m, pc)
		if err != nil {
			t.Skipf("deploy: %v", err)
		}
		fast := base.Clone()
		shadow := withoutXProj(base)
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

// TestPaperModelMatVecKernel pins the MatVec kernel the host hot path's speed
// rests on. On paper-shape models, one seeded and one quick-trained, every
// row of the input-projection build, every Wh·h step of a window and both
// LevelMixed products take fixed.KernelNarrow. Operands that outgrew the
// narrow kernel's guards would still be exact on the wide kernel, only
// slower; this test makes that loss visible instead of silent. make verify
// runs it verbosely, so its log names the kernel the paper model takes.
func TestPaperModelMatVecKernel(t *testing.T) {
	if k := fixed.Default.MatVecKernel(fixed.Matrix{}, nil); k == fixed.KernelGeneric {
		t.Skipf("MatVec runs %s on this CPU for every operand: no AVX-512 kernel to pick", k)
	}
	seeded, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Build(dataset.BuildConfig{RansomwareCount: 60, BenignCount: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	trainDS, testDS, err := ds.Split(0.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := train.Train(trainDS, testDS, train.Config{Epochs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *lstm.Model
	}{{"seeded", seeded}, {"quick-trained", res.Model}} {
		cfg := tc.m.Config()
		fp, err := New(tc.m, Config{Level: LevelFixedPoint, SeqLen: ds.Window})
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := New(tc.m, Config{Level: LevelMixed, SeqLen: ds.Window})
		if err != nil {
			t.Fatal(err)
		}
		want := fixed.KernelNarrow
		for v := 0; v < cfg.VocabSize; v++ {
			if k := fp.arith.MatVecKernel(fp.par.qWx, row(fp.par.qEmbed, v, cfg.EmbedDim)); k != want {
				t.Fatalf("%s: input-projection row %d takes %s, want %s", tc.name, v, k, want)
			}
		}
		steps := 0
		for _, seq := range testDS.Sequences[:8] {
			fp.Reset()
			mixed.Reset()
			for i, item := range seq.Items {
				if k := fp.arith.MatVecKernel(fp.par.qWh, fp.hQ); k != want {
					t.Fatalf("%s: Wh·h at item %d takes %s, want %s", tc.name, i, k, want)
				}
				if k := mixed.narrow.MatVecKernel(mixed.par.nWx, row(mixed.par.nEmbed, item, cfg.EmbedDim)); k != want {
					t.Fatalf("%s: mixed Wx·x at item %d takes %s, want %s", tc.name, i, k, want)
				}
				if _, _, err := fp.ProcessItem(item); err != nil {
					t.Fatal(err)
				}
				if _, _, err := mixed.ProcessItem(item); err != nil {
					t.Fatal(err)
				}
				// hNarrow now holds the h(t-1) this step's Wh·h read.
				if k := mixed.narrow.MatVecKernel(mixed.par.nWh, mixed.hNarrow); k != want {
					t.Fatalf("%s: mixed Wh·h at item %d takes %s, want %s", tc.name, i, k, want)
				}
				steps++
			}
		}
		t.Logf("paper model (%s): Wh·h takes MatVec kernel %s on all %d steps", tc.name, want, steps)
	}
}
