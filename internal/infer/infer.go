// Package infer defines the inference-serving contract shared by every
// layer of the stack. The paper's deployment story (§II, §IV) is a
// data-center node running background ransomware scanning across many
// SmartSSDs under real request load; that requires consumers — detectors,
// fleets, benchmarks, the maintenance loop — to program against a small
// context-aware interface rather than a concrete engine, so that a single
// engine, a host-side baseline, the concurrent serving layer or a
// multi-device fleet can be substituted freely.
//
// The package is deliberately tiny: the Inferencer interface, the shared
// Timing breakdown, and the sentinel errors of the contract. Everything
// above it (internal/core, internal/serve, internal/fleet, internal/cti,
// internal/baseline) implements or consumes it; nothing below it imports
// it.
package infer

import (
	"context"
	"errors"
	"time"

	"github.com/kfrida1/csdinf/internal/kernels"
)

// Timing breaks a classification's simulated latency into data movement
// and FPGA compute. It is shared by every Inferencer implementation;
// host-side baselines report their dispatch latency as Compute with zero
// Transfer.
type Timing struct {
	// Transfer is the data-movement time (SSD read + PCIe path).
	Transfer time.Duration
	// Compute is the kernel (or host model) execution time.
	Compute time.Duration
}

// Total returns Transfer + Compute.
func (t Timing) Total() time.Duration { return t.Transfer + t.Compute }

// Inferencer classifies API-call sequences. Implementations must honor
// context cancellation and deadlines: a canceled ctx aborts the call with
// ctx.Err() before (or instead of) touching the device.
//
// Implementations: core.Engine (one CSD), serve.Server (one device's
// request queue), fleet.Fleet (placement over devices), cti.HotSwapEngine (atomic
// model replacement), and the host-side baselines in internal/baseline.
type Inferencer interface {
	// Predict classifies one host-provided sequence of API-call IDs.
	Predict(ctx context.Context, seq []int) (kernels.Result, Timing, error)
	// PredictStored classifies the sequence resident at the given SSD byte
	// offset — the paper's headline in-storage dataflow. Implementations
	// without attached storage return an error wrapping ErrNoStoredData.
	PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, Timing, error)
	// SeqLen returns the classification window length the inferencer
	// expects.
	SeqLen() int
}

// ErrNoStoredData is returned (wrapped) by PredictStored on inferencers
// with no attached storage, e.g. the host-side baseline models.
var ErrNoStoredData = errors.New("infer: inferencer has no attached storage")
