package kernels

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"sync"
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

// paperModel is a paper-shape model with the windows the kernel-selection
// tests run it on.
type paperModel struct {
	name    string
	m       *lstm.Model
	window  int
	windows []dataset.Sequence
}

// paperModels returns a seeded and a quick-trained paper-shape model, each
// with 8 held-out windows of a seeded corpus. It trains once per test
// binary.
var paperModels = sync.OnceValues(func() ([]paperModel, error) {
	seeded, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Build(dataset.BuildConfig{RansomwareCount: 60, BenignCount: 60, Seed: 5})
	if err != nil {
		return nil, err
	}
	trainDS, testDS, err := ds.Split(0.2, 6)
	if err != nil {
		return nil, err
	}
	res, err := train.Train(trainDS, testDS, train.Config{Epochs: 2, Seed: 5})
	if err != nil {
		return nil, err
	}
	windows := testDS.Sequences[:8]
	return []paperModel{{"seeded", seeded, ds.Window, windows}, {"quick-trained", res.Model, ds.Window, windows}}, nil
})

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
	models, err := paperModels()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range models {
		cfg := tc.m.Config()
		fp, err := New(tc.m, Config{Level: LevelFixedPoint, SeqLen: tc.window})
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := New(tc.m, Config{Level: LevelMixed, SeqLen: tc.window})
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
		for _, seq := range tc.windows {
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

// scalarUpdateState is updateState on the one-element scalar forms: the
// loops the hidden state ran before the vector kernels. It is the scalar
// leg of BenchmarkHiddenState and the reference of
// TestPaperModelElementwiseKernel.
func scalarUpdateState(p *Pipeline) {
	h := p.cfg.HiddenSize
	for j, x := range p.gate[:3*h] {
		p.gate[j] = p.fact.Sigmoid(x)
	}
	i, f, o, c := row(p.gate, 0, h), row(p.gate, 1, h), row(p.gate, 2, h), row(p.gate, 3, h)
	for k := range c {
		c[k] = p.fact.Softsign(c[k])
	}
	for k := range p.cQ {
		p.cQ[k] = p.arith.Add(p.arith.Mul(f[k], p.cQ[k]), p.arith.Mul(i[k], c[k]))
		p.hQ[k] = p.arith.Mul(o[k], p.fact.Softsign(p.cQ[k]))
	}
}

// preactivate computes stepFixed's gate pre-activations for item into
// p.gate: the input-projection row plus Wh·h.
func preactivate(p *Pipeline, item int) {
	p.arith.MatVec(p.gate, p.par.qWh, p.hQ)
	for j, x := range row(p.par.xProj, item, len(p.gate)) {
		p.gate[j] = p.arith.Add(x, p.gate[j])
	}
}

// TestPaperModelElementwiseKernel pins the elementwise kernels the host hot
// path's speed rests on, as TestPaperModelMatVecKernel does for MatVec. On
// the same two paper-shape models and windows, every item's updateState
// must run all five of its slice calls on fixed.KernelVector, and leave the
// same state as scalarUpdateState and as the production ProcessItem.
// Operands that outgrew a guard would still be exact on the scalar loop,
// only slower; this test makes that loss visible instead of silent. make
// verify runs it verbosely, so its log names the kernel the paper model
// takes, or says why the vector leg did not run.
func TestPaperModelElementwiseKernel(t *testing.T) {
	// An empty call is admitted by every guard, so it names the kernel this
	// CPU can run at all.
	if k := fixed.Default.MulSlice(nil, nil, nil); k != fixed.KernelVector {
		t.Skipf("the elementwise operations run %s on this CPU for every operand: no AVX-512 kernel to pick", k)
	}
	models, err := paperModels()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range models {
		fp, err := New(tc.m, Config{Level: LevelFixedPoint, SeqLen: tc.window})
		if err != nil {
			t.Fatal(err)
		}
		scalar := fp.Clone()
		// ref's counter never fires within a window, which would reset its
		// state on the last item.
		ref, err := New(tc.m, Config{Level: LevelFixedPoint, SeqLen: tc.window + 1})
		if err != nil {
			t.Fatal(err)
		}
		items := 0
		for _, seq := range tc.windows {
			fp.Reset()
			scalar.Reset()
			ref.Reset()
			for i, item := range seq.Items {
				preactivate(fp, item)
				preactivate(scalar, item)
				if !fp.updateState() {
					t.Fatalf("%s: item %d of a window falls back to the scalar loop on at least one elementwise call", tc.name, i)
				}
				scalarUpdateState(scalar)
				if _, _, err := ref.ProcessItem(item); err != nil {
					t.Fatal(err)
				}
				for _, other := range []*Pipeline{scalar, ref} {
					if !slices.Equal(fp.hQ, other.hQ) || !slices.Equal(fp.cQ, other.cQ) {
						t.Fatalf("%s: item %d: state diverged\nvector h=%v c=%v\nother  h=%v c=%v", tc.name, i, fp.hQ, fp.cQ, other.hQ, other.cQ)
					}
				}
				items++
			}
		}
		t.Logf("paper model (%s): the hidden state takes elementwise kernel %s on all %d items", tc.name, fixed.KernelVector, items)
	}
}

// TestProbedPathIgnoresVectorKernels keeps the shadow datapath an
// independent oracle for the elementwise kernels: FuzzFixedFastMatchesShadow
// compares the fast path with it, so if stepFixedProbed reached a slice entry
// point, the fuzz would compare the vector kernels with themselves. The
// test walks the calls of stepFixedProbed through every function of this
// package, internal/activation and internal/fixed it reaches, and fails on
// any call to a slice entry point, MatVec, updateState or hiddenStateFixed.
// A package-qualified call is followed into that package only (calls into
// other packages are not followed); a method call is followed into every
// function of that name in the three, which can only add edges. The scalar
// forms the shadow does reach are checked against the branchy references
// in internal/activation.
func TestProbedPathIgnoresVectorKernels(t *testing.T) {
	forbidden := map[string]bool{
		"SigmoidSlice": true, "SoftsignSlice": true, "MulSlice": true, "MulAddSlice": true,
		"MatVec": true, "updateState": true, "hiddenStateFixed": true,
	}
	const module = "github.com/kfrida1/csdinf/internal/"
	type fn struct {
		decl    *ast.FuncDecl
		pkg     string            // the package's directory name
		imports map[string]string // the file's import names → paths
	}
	fset := token.NewFileSet()
	decls := map[string][]fn{}
	for _, pkgName := range []string{"kernels", "activation", "fixed"} {
		pkgs, err := parser.ParseDir(fset, "../"+pkgName, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				imports := map[string]string{}
				for _, im := range f.Imports {
					path := strings.Trim(im.Path.Value, `"`)
					name := path[strings.LastIndex(path, "/")+1:]
					if im.Name != nil {
						name = im.Name.Name
					}
					imports[name] = path
				}
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
						decls[fd.Name.Name] = append(decls[fd.Name.Name], fn{fd, pkgName, imports})
					}
				}
			}
		}
	}
	if len(decls["stepFixedProbed"]) != 1 {
		t.Fatal("stepFixedProbed not found")
	}
	seen := map[string]bool{}
	var walk func(f fn, path string)
	walk = func(f fn, path string) {
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name, into string // into: the only package to follow into, if any
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				name, into = fun.Name, f.pkg
			case *ast.SelectorExpr:
				name = fun.Sel.Name
				if x, ok := fun.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					if !strings.HasPrefix(f.imports[x.Name], module) {
						return true
					}
					into = strings.TrimPrefix(f.imports[x.Name], module)
				}
			default:
				return true
			}
			if forbidden[name] {
				t.Errorf("%s calls %s at %s", path, name, fset.Position(call.Pos()))
			}
			for _, g := range decls[name] {
				key := g.pkg + "." + name
				if (into == "" || into == g.pkg) && !seen[key] {
					seen[key] = true
					walk(g, path+" → "+key)
				}
			}
			return true
		})
	}
	walk(decls["stepFixedProbed"][0], "stepFixedProbed")
	t.Logf("stepFixedProbed reaches %d functions, none of them a vector entry point", len(seen))
}

// BenchmarkHiddenState times the elementwise step of one item of the paper
// model, updateState, on gate pre-activations and a recurrent state taken
// from the middle of a window. The vector leg is updateState itself (it
// fails unless all five calls take fixed.KernelVector, and skips on a CPU
// without AVX-512); the scalar leg is scalarUpdateState. Each iteration
// restores the inputs first.
func BenchmarkHiddenState(b *testing.B) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(m, Config{Level: LevelFixedPoint})
	if err != nil {
		b.Fatal(err)
	}
	for i := range 50 {
		preactivate(p, i%m.Config().VocabSize)
		p.updateState()
	}
	preactivate(p, 7)
	gate, h, c := slices.Clone(p.gate), slices.Clone(p.hQ), slices.Clone(p.cQ)
	restore := func() {
		copy(p.gate, gate)
		copy(p.hQ, h)
		copy(p.cQ, c)
	}
	for _, leg := range []struct {
		name string
		run  func()
	}{
		{"vector", func() {
			if !p.updateState() {
				b.Fatal("updateState fell back to the scalar loop")
			}
		}},
		{"scalar", func() { scalarUpdateState(p) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			if leg.name == "vector" && fixed.Default.MulSlice(nil, nil, nil) != fixed.KernelVector {
				b.Skip("no AVX-512 elementwise kernel on this CPU")
			}
			b.ReportAllocs()
			for b.Loop() {
				restore()
				leg.run()
			}
		})
	}
}
