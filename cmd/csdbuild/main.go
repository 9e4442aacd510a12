// Command csdbuild runs the Vitis-style build flow for the CSD inference
// kernels: it compiles the three kernels of Fig. 2 and links them against a
// target platform in one scheduling pass, printing a v++-style build report
// (latency estimates, scheduling notes, fabric utilization). Linking fails
// exactly when the real toolchain would — e.g. the fully-unrolled
// fixed-point design against the SmartSSD's KU15P.
//
// Usage:
//
//	csdbuild -level fixed -platform u200
//	csdbuild -level fixed -platform ku15p          # fails: 5,120 DSPs needed
//	csdbuild -level mixed -platform ku15p          # fits: DSP-packed MACs
//	csdbuild -level ii -streaming
//	csdbuild -drc -level fixed -platform ku15p     # caught statically, before compile
//
// With -drc the static design-rule checker (internal/drc) runs first and
// error-level findings abort the build before any kernel is compiled — the
// same catalogue `csdlint drc` reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/kfrida1/csdinf/internal/drc"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/vitis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csdbuild:", err)
		os.Exit(1)
	}
}

// run builds the configuration named by args and writes the build report
// (and, with -drc, the design-rule report) to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("csdbuild", flag.ContinueOnError)
	level := fs.String("level", "fixed", "vanilla | ii | fixed | mixed")
	platform := fs.String("platform", "u200", "u200 | ku15p")
	streaming := fs.Bool("streaming", false, "use AXI4-Stream kernel links")
	gateCUs := fs.Int("gatecus", 4, "kernel_gates compute units (must divide 4)")
	runDRC := fs.Bool("drc", false, "run the static design-rule check before compiling; error findings abort the build")
	if err := fs.Parse(args); err != nil {
		return err
	}

	levels := map[string]kernels.OptLevel{
		"vanilla": kernels.LevelVanilla,
		"ii":      kernels.LevelII,
		"fixed":   kernels.LevelFixedPoint,
		"mixed":   kernels.LevelMixed,
	}
	lv, ok := levels[*level]
	if !ok {
		return fmt.Errorf("unknown level %q (want vanilla, ii, fixed, mixed)", *level)
	}
	parts := map[string]fpga.Part{"u200": fpga.AlveoU200, "ku15p": fpga.KU15P}
	part, ok := parts[*platform]
	if !ok {
		return fmt.Errorf("unknown platform %q (want u200, ku15p)", *platform)
	}

	kcfg := kernels.Config{Level: lv, Part: part, GateCUs: *gateCUs, Streaming: *streaming}
	if *runDRC {
		// The build flow has no trained weights, so the numeric rules run
		// over a seeded paper-architecture model: the same deterministic
		// initialization every test uses, enough to prove the architecture
		// fits int64 at the default scale before compiling.
		m, err := lstm.NewModel(lstm.PaperConfig(), 1)
		if err != nil {
			return err
		}
		design, err := kernels.DesignForModel(m, kcfg)
		if err != nil {
			return err
		}
		rep := drc.Check(design)
		if err := rep.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if !rep.OK() {
			return &drc.RejectError{Report: rep}
		}
	}

	specs, err := kernels.Specs(lstm.PaperConfig(), kcfg)
	if err != nil {
		return err
	}

	bin, err := vitis.Link(specs, part)
	if err != nil {
		return fmt.Errorf("v++ -l: %w", err)
	}
	for _, pk := range bin.Objects {
		fmt.Fprintf(w, "v++ -c %s: %d cycles/invocation, %d DSP/CU\n",
			pk.Spec.Name, pk.CyclesPerInvocation, pk.Res.DSP/pk.Spec.CUs)
	}
	fmt.Fprintln(w)
	return bin.Report(w)
}
