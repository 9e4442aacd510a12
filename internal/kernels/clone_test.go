package kernels

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/lstm"
)

// allLevels is every optimization level, Fig. 3's three plus LevelMixed.
var allLevels = []OptLevel{LevelVanilla, LevelII, LevelFixedPoint, LevelMixed}

// sameArray reports whether a and b view the same backing array (both nil
// counts as the same).
func sameArray(a, b []fixed.Value) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// withoutXProj returns a clone of p whose parameters lack the
// input-projection table: every other parameter is shared, and any read of
// the table panics.
func withoutXProj(p *Pipeline) *Pipeline {
	c := p.Clone()
	par := *c.par
	par.xProj = nil
	c.par = &par
	return c
}

// TestCloneSharesParameters pins what Clone shares and what it copies: the
// quantized parameters and the input-projection table are one backing
// array for a pipeline and all its clones; scratch and recurrent state are
// each clone's own.
func TestCloneSharesParameters(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(m, Config{Level: LevelFixedPoint})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	cfg := m.Config()
	if got, want := len(p.InputProjection()), cfg.VocabSize*4*cfg.HiddenSize; got != want {
		t.Fatalf("input projection holds %d values, want VocabSize·4H = %d", got, want)
	}
	for name, pair := range map[string][2][]fixed.Value{
		"xProj":  {p.par.xProj, c.par.xProj},
		"qEmbed": {p.par.qEmbed, c.par.qEmbed},
		"qWx":    {p.par.qWx.Row(0), c.par.qWx.Row(0)},
		"qWh":    {p.par.qWh.Row(0), c.par.qWh.Row(0)},
		"qB":     {p.par.qB, c.par.qB},
		"qFCW":   {p.par.qFCW, c.par.qFCW},
	} {
		if !sameArray(pair[0], pair[1]) {
			t.Errorf("%s: clone holds its own copy", name)
		}
	}
	if !sameArray(p.InputProjection(), c.InputProjection()) {
		t.Error("InputProjection differs between a pipeline and its clone")
	}
	for name, pair := range map[string][2][]fixed.Value{
		"gate": {p.gate, c.gate},
		"hQ":   {p.hQ, c.hQ},
		"cQ":   {p.cQ, c.cQ},
	} {
		if sameArray(pair[0], pair[1]) {
			t.Errorf("%s: clone shares the original's scratch", name)
		}
	}
	if c.Level() != p.Level() || c.SeqLen() != p.SeqLen() || c.GateCUs() != p.GateCUs() ||
		c.Placed(KernelGates) != p.Placed(KernelGates) {
		t.Error("clone differs from the original in level, shape or placement")
	}

	for _, level := range []OptLevel{LevelVanilla, LevelII, LevelMixed} {
		q, err := New(m, Config{Level: level})
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if q.InputProjection() != nil || q.Clone().InputProjection() != nil {
			t.Errorf("%s builds an input-projection table", level)
		}
	}
}

// TestInputProjectionRows checks the table against the per-item
// definition: entry (v, j) is Dot(Wx row j, embed(v)) + b[j].
func TestInputProjectionRows(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{Level: LevelFixedPoint, SeqLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	rows, o := 4*cfg.HiddenSize, cfg.EmbedDim
	for v := 0; v < cfg.VocabSize; v++ {
		x := row(p.par.qEmbed, v, o)
		for j := 0; j < rows; j++ {
			want := p.arith.Add(p.arith.Dot(p.par.qWx.Row(j), x), p.par.qB[j])
			if got := p.InputProjection()[v*rows+j]; got != want {
				t.Fatalf("xProj[%d][%d] = %d, want %d", v, j, got, want)
			}
		}
	}
}

// TestClonesMatchIndependentPipelines interleaves two clones item by item
// on different sequences and requires each to produce exactly what a
// pipeline built on its own does, at every level: a clone shares nothing a
// step writes.
func TestClonesMatchIndependentPipelines(t *testing.T) {
	m := testModel(t)
	const seqLen = 9
	seqA, seqB := make([]int, 3*seqLen), make([]int, 3*seqLen)
	for i := range seqA {
		seqA[i] = (i*7 + 1) % m.Config().VocabSize
		seqB[i] = (i*11 + 5) % m.Config().VocabSize
	}
	for _, level := range allLevels {
		cfg := Config{Level: level, SeqLen: seqLen}
		base, err := New(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		a, b := base.Clone(), base.Clone()
		refA, err := New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refB, err := New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seqA {
			ra, da, errA := a.ProcessItem(seqA[i])
			rb, db, errB := b.ProcessItem(seqB[i])
			wa, wda, _ := refA.ProcessItem(seqA[i])
			wb, wdb, _ := refB.ProcessItem(seqB[i])
			if errA != nil || errB != nil {
				t.Fatalf("%s item %d: %v / %v", level, i, errA, errB)
			}
			if ra != wa || da != wda || rb != wb || db != wdb {
				t.Fatalf("%s item %d: clones (%+v, %+v), independent (%+v, %+v)", level, i, ra, rb, wa, wb)
			}
			if !slices.Equal(a.hQ, refA.hQ) || !slices.Equal(b.cQ, refB.cQ) ||
				!slices.Equal(a.hF, refA.hF) || !slices.Equal(b.cF, refB.cF) {
				t.Fatalf("%s item %d: clone state diverged from an independent pipeline", level, i)
			}
		}
	}
}

// TestClonesClassifyConcurrently runs clones of one pipeline on separate
// goroutines; under -race it proves the shared parameters, placement and
// FPGA device are only read, and every verdict must equal a lone
// pipeline's.
func TestClonesClassifyConcurrently(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Level: LevelFixedPoint, SeqLen: 20}
	base, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 6
	seqs := make([][]int, workers*rounds)
	want := make([]Result, len(seqs))
	for i := range seqs {
		seqs[i] = make([]int, cfg.SeqLen)
		for k := range seqs[i] {
			seqs[i][k] = (i*31 + k*17) % m.Config().VocabSize
		}
		if want[i], _, err = ref.Classify(seqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]Result, len(seqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := base.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := r*workers + w
				res, _, err := c.Classify(seqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = res
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sequence %d: concurrent clone %+v, lone pipeline %+v", i, got[i], want[i])
		}
	}
}
