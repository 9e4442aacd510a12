package vitis

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/hls"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
)

func paperSpecs(t *testing.T, level kernels.OptLevel) []fpga.KernelSpec {
	t.Helper()
	specs, err := kernels.Specs(lstm.PaperConfig(), kernels.Config{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestLinkFixedPointOnU200(t *testing.T) {
	bin, err := Link(paperSpecs(t, kernels.LevelFixedPoint), fpga.AlveoU200)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Utilization.DSP <= 0.5 {
		t.Errorf("fixed-point DSP utilization = %v, expected ~75%%", bin.Utilization.DSP)
	}
	if len(bin.Objects) != 3 {
		t.Errorf("placed kernels = %d, want 3", len(bin.Objects))
	}
	for _, pk := range bin.Objects {
		if pk.CyclesPerInvocation <= 0 || pk.Res == (hls.Resources{}) {
			t.Errorf("%s: cycles %d, resources %+v: missing estimate", pk.Spec.Name, pk.CyclesPerInvocation, pk.Res)
		}
	}
}

func TestLinkFailsOnKU15P(t *testing.T) {
	if _, err := Link(paperSpecs(t, kernels.LevelFixedPoint), fpga.KU15P); !errors.Is(err, fpga.ErrResourceExhausted) {
		t.Fatalf("error = %v, want ErrResourceExhausted", err)
	}
}

func TestLinkValidation(t *testing.T) {
	if _, err := Link(nil, fpga.AlveoU200); err == nil {
		t.Error("no specs: expected error")
	}
	if _, err := Link([]fpga.KernelSpec{{Name: "x", CUs: 1}}, fpga.Part{Name: "bad"}); err == nil {
		t.Error("invalid platform: expected error")
	}
}

func TestReport(t *testing.T) {
	bin, err := Link(paperSpecs(t, kernels.LevelVanilla), fpga.AlveoU200)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bin.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Build summary", "xcu200", "kernel_preprocess", "kernel_gates",
		"kernel_hidden_state", "Utilization", "µs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSpecsValidation(t *testing.T) {
	if _, err := kernels.Specs(lstm.Config{}, kernels.Config{}); err == nil {
		t.Error("invalid model config: expected error")
	}
	if _, err := kernels.Specs(lstm.PaperConfig(), kernels.Config{GateCUs: 3}); err == nil {
		t.Error("bad gate CUs: expected error")
	}
	if _, err := kernels.Specs(lstm.PaperConfig(), kernels.Config{Level: kernels.LevelVanilla, Streaming: true}); err == nil {
		t.Error("streaming at vanilla: expected error")
	}
}
