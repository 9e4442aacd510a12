package core

import (
	"context"
	"testing"
	"unsafe"

	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/ssd"
)

// TestImageDeploysShareParameters loads one compiled image onto three
// devices: the engines share one input-projection table, each owns its
// pipeline, and every engine classifies, and charges init time, exactly as
// one deployed on its own.
func TestImageDeploysShareParameters(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DeployConfig{SeqLen: 12}
	img, err := Compile(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	newDev := func() *csd.SmartSSD {
		dev, err := csd.New(csd.Config{SSD: ssd.Config{Capacity: 1 << 20}})
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	lone, err := Deploy(newDev(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var engines []*Engine
	for i := 0; i < 3; i++ {
		e, err := img.Deploy(newDev(), "")
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	table := unsafe.SliceData(engines[0].Pipeline().InputProjection())
	if table == nil {
		t.Fatal("fixed-point engine has no input-projection table")
	}
	for i, e := range engines {
		if unsafe.SliceData(e.Pipeline().InputProjection()) != table {
			t.Errorf("engine %d holds its own input-projection table", i)
		}
		if i > 0 && e.Pipeline() == engines[0].Pipeline() {
			t.Errorf("engine %d shares engine 0's pipeline", i)
		}
		if e.InitTime() != lone.InitTime() {
			t.Errorf("engine %d init time %v, lone deploy %v", i, e.InitTime(), lone.InitTime())
		}
	}
	ctx := context.Background()
	for k := 0; k < 4; k++ {
		for i, e := range engines {
			seq := make([]int, cfg.SeqLen)
			for j := range seq {
				seq[j] = (j*29 + k*7 + i*13) % m.Config().VocabSize
			}
			got, gt, err := e.Predict(ctx, seq)
			if err != nil {
				t.Fatal(err)
			}
			want, wt, err := lone.Predict(ctx, seq)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || gt != wt {
				t.Fatalf("round %d engine %d: (%+v, %+v), lone engine (%+v, %+v)", k, i, got, gt, want, wt)
			}
		}
	}
}

// TestPredictAllocFree pins the engine's host staging: a live window is
// encoded into, and every window decoded into, engine-owned scratch, so
// neither Predict nor PredictStored allocates.
func TestPredictAllocFree(t *testing.T) {
	dev, eng := testSetup(t, 0, 10)
	seq := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if _, err := dev.StoreSequence(0, seq); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"Predict": func() error {
			_, _, err := eng.Predict(ctx, seq)
			return err
		},
		"PredictStored": func() error {
			_, _, err := eng.PredictStored(ctx, 0)
			return err
		},
	} {
		var callErr error
		allocs := testing.AllocsPerRun(20, func() {
			if err := call(); err != nil {
				callErr = err
			}
		})
		if callErr != nil {
			t.Fatalf("%s: %v", name, callErr)
		}
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per window, want 0", name, allocs)
		}
	}
}
