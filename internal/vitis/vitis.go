// Package vitis models the build flow the paper uses to produce its FPGA
// binary (§IV): kernels written in HLS are compiled with v++ and linked
// against the target platform into the .xclbin binary that the host
// program loads at initialization.
//
// Link schedules each kernel's loop nests once (the II bounds and resource
// estimates a real v++ compile log reports) while placing all compute
// units on the platform, failing exactly when the real linker would:
// insufficient fabric. The resulting Binary carries the utilization/timing
// summary and can render a v++-style build report.
package vitis

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/hls"
)

// Binary is the linked FPGA binary (.xclbin): every kernel placed on the
// platform, with the build summary.
type Binary struct {
	// Platform is the target part.
	Platform fpga.Part
	// Objects are the placed kernels, in spec order.
	Objects []*fpga.PlacedKernel
	// Utilization is post-link fabric utilization.
	Utilization fpga.Utilization
	// Used is the absolute fabric consumption.
	Used hls.Resources
}

// Link schedules and places the kernel specs on the platform — the v++ -c
// and -l steps in one pass. It fails with fpga.ErrResourceExhausted when
// the design does not fit, exactly as the paper's fixed-point design would
// fail to link against the KU15P.
func Link(specs []fpga.KernelSpec, platform fpga.Part) (*Binary, error) {
	if len(specs) == 0 {
		return nil, errors.New("vitis: no kernels to link")
	}
	dev, err := fpga.NewDevice(platform)
	if err != nil {
		return nil, fmt.Errorf("vitis: %w", err)
	}
	b := &Binary{Platform: platform, Objects: make([]*fpga.PlacedKernel, 0, len(specs))}
	for _, spec := range specs {
		pk, err := dev.Place(spec)
		if err != nil {
			return nil, fmt.Errorf("vitis: link %s: %w", spec.Name, err)
		}
		b.Objects = append(b.Objects, pk)
	}
	b.Utilization = dev.Utilization()
	b.Used = dev.Used()
	return b, nil
}

// Report renders a v++-style build summary: per-kernel timing estimates,
// scheduling notes (II bounds that fired), and the utilization table.
// Per-CU figures divide the kernel's fabric by its CU count; Place scales
// one CU's estimate by that count, so the division is exact.
func (b *Binary) Report(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== Build summary: platform %s @ %.0f MHz ===\n",
		b.Platform.Name, b.Platform.ClockMHz)
	fmt.Fprintf(&sb, "%-22s %4s %14s %16s %8s %10s\n",
		"Kernel", "CUs", "Cycles/invoc", "Latency", "DSP/CU", "LUT/CU")
	for _, pk := range b.Objects {
		us := float64(pk.CyclesPerInvocation) / b.Platform.ClockMHz
		cus := pk.Spec.CUs
		fmt.Fprintf(&sb, "%-22s %4d %14d %13.3f µs %8d %10d\n",
			pk.Spec.Name, cus, pk.CyclesPerInvocation, us, pk.Res.DSP/cus, pk.Res.LUT/cus)
		for _, note := range pk.Notes() {
			fmt.Fprintf(&sb, "    note: %s\n", note)
		}
	}
	fmt.Fprintf(&sb, "Utilization: DSP %.1f%% (%d/%d)  LUT %.1f%% (%d/%d)  FF %.1f%%  BRAM %.1f%%\n",
		b.Utilization.DSP*100, b.Used.DSP, b.Platform.Budget.DSP,
		b.Utilization.LUT*100, b.Used.LUT, b.Platform.Budget.LUT,
		b.Utilization.FF*100, b.Utilization.BRAM*100)
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("vitis: write report: %w", err)
	}
	return nil
}
