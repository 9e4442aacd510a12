package csdinf_test

import (
	"context"
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/kfrida1/csdinf"
	"github.com/kfrida1/csdinf/internal/fleet"
)

// TestEndToEndPipeline exercises the full public API exactly as the
// examples do: build corpus → train → deploy to a CSD → classify stored
// sequences → stream-detect an infection. It shares the examples' trained
// classifier (trained, in example_test.go).
func TestEndToEndPipeline(t *testing.T) {
	run, err := trained()
	if err != nil {
		t.Fatal(err)
	}
	testDS, model := run.testDS, run.res.Model
	if acc := run.res.Final.Accuracy; acc < 0.85 {
		t.Fatalf("accuracy = %v", acc)
	}

	// Deploy to a CSD and classify sequences stored on the SSD.
	dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := csdinf.Deploy(dev, model, csdinf.DeployConfig{Level: csdinf.LevelFixedPoint, SeqLen: 40})
	if err != nil {
		t.Fatal(err)
	}

	correct, total := 0, 0
	var off int64
	for _, s := range testDS.Sequences[:40] {
		if _, err := dev.StoreSequence(off, s.Items); err != nil {
			t.Fatal(err)
		}
		result, timing, err := eng.PredictStored(context.Background(), off)
		if err != nil {
			t.Fatal(err)
		}
		if timing.Total() <= 0 {
			t.Fatal("no time charged")
		}
		if result.Ransomware == s.Ransomware {
			correct++
		}
		total++
		off += int64(len(s.Items) * 4)
	}
	if frac := float64(correct) / float64(total); frac < 0.8 {
		t.Fatalf("stored-classification agreement = %v", frac)
	}

	// Streaming detection over a live ransomware trace.
	var ransom []int
	for _, s := range testDS.Sequences {
		if s.Ransomware {
			ransom = s.Items
			break
		}
	}
	if ransom == nil {
		t.Fatal("no ransomware sequence in test split")
	}
	det, err := csdinf.NewDetector(eng, csdinf.DetectorConfig{Stride: 10, AlertsToBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range ransom {
		if _, err := det.Observe(context.Background(), call); err != nil {
			break // ErrBlocked is success here
		}
	}
	// Detection isn't guaranteed for every window, but the detector must
	// have evaluated at least one.
	if det.Stats().WindowsEvaluated == 0 {
		t.Fatal("detector never classified a window")
	}
}

func TestPaperModelConfigCounts(t *testing.T) {
	m, err := csdinf.NewModel(csdinf.PaperModelConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	embed, lstmP, head := m.ParamCount()
	if embed+lstmP != 7472 || head != 33 {
		t.Fatalf("params = %d + %d, want 7472 + 33", embed+lstmP, head)
	}
	if csdinf.VocabSize != 278 {
		t.Fatalf("VocabSize = %d", csdinf.VocabSize)
	}
}

func TestFamiliesExported(t *testing.T) {
	if len(csdinf.Families) != 10 {
		t.Fatalf("families = %d", len(csdinf.Families))
	}
	total := 0
	for _, f := range csdinf.Families {
		total += f.Variants
	}
	if total != 76 {
		t.Fatalf("variants = %d", total)
	}
}

func TestPartsExported(t *testing.T) {
	if csdinf.KU15P.Name != "xcku15p" || csdinf.AlveoU200.Name != "xcu200" {
		t.Fatal("FPGA parts misconfigured")
	}
	if csdinf.LevelVanilla >= csdinf.LevelII || csdinf.LevelII >= csdinf.LevelFixedPoint || csdinf.LevelFixedPoint >= csdinf.LevelMixed {
		t.Fatal("level ordering broken")
	}
	if csdinf.ActionNone == csdinf.ActionAlert || csdinf.ActionAlert == csdinf.ActionBlock {
		t.Fatal("action constants collide")
	}
}

func TestTraceGenerationFacade(t *testing.T) {
	trace, err := csdinf.RansomwareTrace("Wannacry", 0, 500, 1)
	if err != nil || len(trace) != 500 {
		t.Fatalf("RansomwareTrace: %d items, %v", len(trace), err)
	}
	if _, err := csdinf.RansomwareTrace("NotAFamily", 0, 10, 1); err == nil {
		t.Error("unknown family accepted")
	}
	bt, err := csdinf.BenignTrace(csdinf.BenignApps[0], 200, 2)
	if err != nil || len(bt) != 200 {
		t.Fatalf("BenignTrace: %d items, %v", len(bt), err)
	}
	dt, err := csdinf.DesktopTrace(100, 3)
	if err != nil || len(dt) != 100 {
		t.Fatalf("DesktopTrace: %d items, %v", len(dt), err)
	}
}

func TestReportFacade(t *testing.T) {
	trace, err := csdinf.RansomwareTrace("Cerber", 0, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := csdinf.ReportFromTrace("cerber.exe", "Cerber", 0, trace)
	if err != nil {
		t.Fatal(err)
	}
	if r.Target.Name != "cerber.exe" || r.Target.Family != "Cerber" {
		t.Fatalf("report target = %+v", r.Target)
	}
	items, err := r.Trace()
	if err != nil || !slices.Equal(items, trace) {
		t.Fatalf("report trace: %d items, %v", len(items), err)
	}
}

func TestMitigationQuarantineFacade(t *testing.T) {
	dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.SSD().Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	dev.SSD().Quarantine(true)
	if _, err := dev.SSD().Write(0, []byte{2}); err == nil {
		t.Fatal("write under quarantine succeeded")
	}
}

// TestCorpusDeterminismGolden guards the seeded generation pipeline: the
// same seed must always produce the same corpus (a silent generator change
// would invalidate every recorded experiment).
func TestCorpusDeterminismGolden(t *testing.T) {
	ds, err := csdinf.BuildDataset(csdinf.DatasetConfig{
		RansomwareCount: 76, BenignCount: 31, Window: 25, Stride: 25, Seed: 12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, s := range ds.Sequences {
		for _, it := range s.Items {
			h.Write([]byte{byte(it), byte(it >> 8)})
		}
		if s.Ransomware {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	// Golden value recorded at v1.0.0; update deliberately (and re-record
	// EXPERIMENTS.md) if the generator changes.
	const golden = uint64(0xc755d7c09e9d179d)
	if got := h.Sum64(); got != golden {
		t.Fatalf("corpus hash = %#x, want %#x — the seeded generator changed; "+
			"if intentional, re-record EXPERIMENTS.md and update this golden", got, golden)
	}
}

// TestServerFacade exercises the concurrent serving layer end to end
// through the public API: deploy to several devices, push live work from
// concurrent callers, and close.
func TestServerFacade(t *testing.T) {
	cfg := csdinf.PaperModelConfig()
	cfg.EmbedDim, cfg.HiddenSize = 4, 8 // scaled down to keep the test fast
	m, err := csdinf.NewModel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := csdinf.NewFleet(m, csdinf.FleetConfig{
		Nodes:  2,
		Block:  true,
		Deploy: csdinf.DeployConfig{SeqLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 2 || s.SeqLen() != 16 {
		t.Fatalf("Nodes = %d, SeqLen = %d", s.Nodes(), s.SeqLen())
	}
	seq := make([]int, 16)
	for i := range seq {
		seq[i] = i + 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := s.Predict(context.Background(), seq); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	var jobs int64
	for _, st := range s.Stats() {
		jobs += st.Serve.Jobs
	}
	if jobs != 32 {
		t.Fatalf("jobs = %d, want 32", jobs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), seq); !errors.Is(err, fleet.ErrClosed) {
		t.Fatalf("post-close error = %v, want fleet.ErrClosed", err)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestAPIGolden pins the facade's exported surface: every exported
// top-level name in csdinf.go, with its kind, must match
// testdata/api.golden, so that growing (or shrinking) the public API is a
// deliberate diff. Rewrite with -update.
func TestAPIGolden(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "csdinf.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name+" func")
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						names = append(names, sp.Name.Name+" type")
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							names = append(names, n.Name+" "+d.Tok.String())
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	got := []byte(strings.Join(names, "\n") + "\n")
	path := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("exported API changed\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
