package kernels

import (
	"testing"

	"github.com/kfrida1/csdinf/internal/absint"
	"github.com/kfrida1/csdinf/internal/drc"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/lstm"
)

// TestProbedPathMatchesFast pins the shadow-datapath contract: with a probe
// installed, every classification is bit-identical to the unprobed fast path,
// and on an in-range model no stage ever reports a wrap.
func TestProbedPathMatchesFast(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Level: LevelFixedPoint, SeqLen: 7}
	fast, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probed, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	observations := 0
	stages := map[string]bool{}
	probed.SetNumericProbe(func(stage string, v fixed.Value, wrapErr error) {
		observations++
		stages[stage] = true
		if wrapErr != nil {
			t.Errorf("stage %s wrapped on the paper model: %v", stage, wrapErr)
		}
	})

	seq := make([]int, cfg.SeqLen)
	for i := range seq {
		seq[i] = (i * 13) % m.Config().VocabSize
	}
	rf, cf, err := fast.Classify(seq)
	if err != nil {
		t.Fatal(err)
	}
	rp, cp, err := probed.Classify(seq)
	if err != nil {
		t.Fatal(err)
	}
	if rf != rp {
		t.Fatalf("probed result diverged from fast path: %+v vs %+v", rp, rf)
	}
	if cf != cp {
		t.Fatalf("probe changed the simulated latency: %d vs %d", cp, cf)
	}
	if observations == 0 {
		t.Fatal("probe never fired")
	}
	for _, want := range []string{
		absint.StageEmbed,
		absint.GateStage(lstm.GateInput, absint.StageWxAcc),
		absint.StageCellState,
		absint.StageFCAcc,
		absint.StageLogit,
	} {
		if !stages[want] {
			t.Errorf("probe never observed stage %s", want)
		}
	}

	// Removing the probe restores the fast path.
	probed.SetNumericProbe(nil)
	before := observations
	if _, _, err := probed.Classify(seq); err != nil {
		t.Fatal(err)
	}
	if observations != before {
		t.Error("probe fired after removal")
	}
}

// TestProbedPathIgnoresXProj keeps the shadow datapath an independent
// oracle for the fast path: it must compute the gate pre-activations from
// qEmbed, qWx and qB row by row and never read the input-projection table.
// Its pipeline here shares every parameter with the fast one except the
// table, which it lacks, so a read would panic, and a lookup that stood in
// for the row-by-row path could not match.
func TestProbedPathIgnoresXProj(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New(m, Config{Level: LevelFixedPoint, SeqLen: 30})
	if err != nil {
		t.Fatal(err)
	}
	shadow := withoutXProj(fast)
	shadow.SetNumericProbe(func(string, fixed.Value, error) {})
	seq := make([]int, fast.SeqLen())
	for i := range seq {
		seq[i] = (i*53 + 9) % m.Config().VocabSize
	}
	rf, cf, err := fast.Classify(seq)
	if err != nil {
		t.Fatal(err)
	}
	rs, cs, err := shadow.Classify(seq)
	if err != nil {
		t.Fatal(err)
	}
	if rf != rs || cf != cs {
		t.Fatalf("shadow without the table (%+v, %d cycles), fast (%+v, %d cycles)", rs, cs, rf, cf)
	}
}

// TestDesignForModelAttachesNumeric checks the weight-aware design carries
// the interval analysis exactly at the fixed-point level, and that the
// attached report survives a full drc.Check of the paper model.
func TestDesignForModelAttachesNumeric(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DesignForModel(m, Config{Level: LevelFixedPoint})
	if err != nil {
		t.Fatal(err)
	}
	if d.Numeric == nil {
		t.Fatal("fixed-point design carries no numeric report")
	}
	if !d.Numeric.OverflowFree() {
		t.Fatal("paper model refuted at the default scale")
	}
	if rep := drc.Check(d); !rep.OK() {
		t.Fatalf("paper model design has error findings: %+v", rep.Findings)
	}

	for _, level := range []OptLevel{LevelVanilla, LevelII, LevelMixed} {
		d, err := DesignForModel(m, Config{Level: level})
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if d.Numeric != nil {
			t.Errorf("%s design carries a numeric report", level)
		}
	}

	if _, err := DesignForModel(nil, Config{}); err == nil {
		t.Error("nil model accepted")
	}
}
