package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/ssd"
)

func testSetup(t *testing.T, level kernels.OptLevel, seqLen int) (*csd.SmartSSD, *Engine) {
	t.Helper()
	dev, err := csd.New(csd.Config{SSD: ssd.Config{Capacity: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 30, EmbedDim: 4, HiddenSize: 8, CellActivation: activation.Softsign,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Deploy(dev, m, DeployConfig{Level: level, SeqLen: seqLen})
	if err != nil {
		t.Fatal(err)
	}
	return dev, eng
}

func TestDeployValidation(t *testing.T) {
	dev, err := csd.New(csd.Config{SSD: ssd.Config{Capacity: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 10, EmbedDim: 2, HiddenSize: 4, CellActivation: activation.Softsign,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(nil, m, DeployConfig{}); err == nil {
		t.Error("nil device: expected error")
	}
	if _, err := Deploy(dev, nil, DeployConfig{}); err == nil {
		t.Error("nil model: expected error")
	}
	if _, err := Deploy(dev, m, DeployConfig{SeqLen: -2}); err == nil {
		t.Error("bad seqlen: expected error")
	}
}

func TestDeployChargesInitTime(t *testing.T) {
	_, eng := testSetup(t, kernels.LevelFixedPoint, 10)
	if eng.InitTime() <= 0 {
		t.Fatal("deployment charged no host-initialization time")
	}
	if eng.SeqLen() != 10 {
		t.Fatalf("SeqLen = %d", eng.SeqLen())
	}
}

func TestPredictStoredP2P(t *testing.T) {
	dev, eng := testSetup(t, kernels.LevelFixedPoint, 10)
	seq := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if _, err := dev.StoreSequence(8192, seq); err != nil {
		t.Fatal(err)
	}
	before := dev.Traffic()
	res, timing, err := eng.PredictStored(context.Background(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Transfer <= 0 || timing.Compute <= 0 {
		t.Fatalf("timing = %+v", timing)
	}
	if timing.Total() != timing.Transfer+timing.Compute {
		t.Fatal("Total() arithmetic broken")
	}
	if res.Probability <= 0 || res.Probability >= 1 {
		t.Fatalf("probability = %v", res.Probability)
	}
	after := dev.Traffic()
	if after.P2PBytes <= before.P2PBytes {
		t.Fatal("P2P path moved no bytes through the switch")
	}
	if after.HostBytes != before.HostBytes {
		t.Fatal("P2P classification leaked traffic through the host")
	}
}

func TestPredictStoredHostPathSlower(t *testing.T) {
	dev, eng := testSetup(t, kernels.LevelFixedPoint, 10)
	seq := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if _, err := dev.StoreSequence(0, seq); err != nil {
		t.Fatal(err)
	}
	_, p2p, err := eng.PredictStored(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, host, err := eng.PredictStoredViaHost(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2p.Transfer >= host.Transfer {
		t.Fatalf("P2P transfer %v not faster than host path %v", p2p.Transfer, host.Transfer)
	}
	if p2p.Compute != host.Compute {
		t.Fatalf("compute should be identical: %v vs %v", p2p.Compute, host.Compute)
	}
}

func TestPredictDirect(t *testing.T) {
	_, eng := testSetup(t, kernels.LevelVanilla, 5)
	res, timing, err := eng.Predict(context.Background(), []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if timing.Transfer <= 0 {
		t.Fatal("direct predict should pay a host-link transfer")
	}
	if res.Probability <= 0 || res.Probability >= 1 {
		t.Fatalf("probability = %v", res.Probability)
	}
	if _, _, err := eng.Predict(context.Background(), []int{1, 2}); err == nil {
		t.Error("short sequence: expected error")
	}
	if _, _, err := eng.Predict(context.Background(), []int{-1, 2, 3, 4, 5}); err == nil {
		t.Error("negative item: expected error")
	}
}

func TestPredictMatchesReferenceModel(t *testing.T) {
	dev, err := csd.New(csd.Config{SSD: ssd.Config{Capacity: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 30, EmbedDim: 4, HiddenSize: 8, CellActivation: activation.Softsign,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Deploy(dev, m, DeployConfig{Level: kernels.LevelII, SeqLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{3, 1, 4, 1, 5, 9}
	res, _, err := eng.Predict(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Forward(seq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probability-want) > 1e-12 {
		t.Fatalf("engine %v vs reference %v", res.Probability, want)
	}
}

func TestPredictStoredPropagatesMediaFault(t *testing.T) {
	dev, eng := testSetup(t, kernels.LevelFixedPoint, 10)
	if err := dev.SSD().InjectReadFault(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.PredictStored(context.Background(), 0); !errors.Is(err, ssd.ErrMediaFault) {
		t.Fatalf("error = %v, want wrapped ErrMediaFault", err)
	}
}

func TestPredictStoredRejectsOOVData(t *testing.T) {
	dev, eng := testSetup(t, kernels.LevelFixedPoint, 10)
	// Store garbage item IDs beyond the vocabulary.
	bogus := make([]int, 10)
	for i := range bogus {
		bogus[i] = 1 << 20
	}
	if _, err := dev.StoreSequence(0, bogus); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.PredictStored(context.Background(), 0); !errors.Is(err, lstm.ErrItemOutOfRange) {
		t.Fatalf("error = %v, want wrapped ErrItemOutOfRange", err)
	}
}

func TestPerItemMicrosExposed(t *testing.T) {
	_, eng := testSetup(t, kernels.LevelFixedPoint, 10)
	pre, gates, hidden, total := eng.PerItemMicros()
	if pre <= 0 || gates <= 0 || hidden <= 0 {
		t.Fatalf("kernel micros = %v %v %v", pre, gates, hidden)
	}
	if math.Abs(total-(pre+gates+hidden)) > 1e-9 {
		t.Fatalf("total %v != sum %v", total, pre+gates+hidden)
	}
	if eng.Pipeline() == nil || eng.Device() == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestPredictValidatesLengthBeforeEncode(t *testing.T) {
	_, eng := testSetup(t, kernels.LevelFixedPoint, 5)
	// Wrong length AND an item the encoder would reject: the length check
	// must win, proving the oversized sequence never pays the encode.
	_, _, err := eng.Predict(context.Background(), []int{-1, 2, 3})
	if err == nil {
		t.Fatal("short sequence accepted")
	}
	if !strings.Contains(err.Error(), "length") {
		t.Fatalf("error = %v, want the length validation, not the encode failure", err)
	}
}

func TestPredictHonorsCanceledContext(t *testing.T) {
	dev, eng := testSetup(t, kernels.LevelFixedPoint, 10)
	seq := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if _, err := dev.StoreSequence(0, seq); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.Predict(ctx, seq); !errors.Is(err, context.Canceled) {
		t.Fatalf("Predict error = %v, want context.Canceled", err)
	}
	if _, _, err := eng.PredictStored(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictStored error = %v, want context.Canceled", err)
	}
	if _, _, err := eng.PredictStoredViaHost(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictStoredViaHost error = %v, want context.Canceled", err)
	}
}
