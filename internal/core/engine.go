// Package core implements the paper's primary contribution: an inference
// engine that runs the *entire* LSTM classifier inside a computational
// storage drive.
//
// Deploy plays the role of the paper's host program (§III-A): it ingests the
// offline-trained weights, scales them to fixed point, initializes the FPGA
// (placing the five kernels of Fig. 2 on the fabric and loading the
// parameter buffers over the host PCIe link), and allocates the sequence
// buffers in FPGA DRAM. After deployment the host is out of the data path:
// Predict* calls move sequences from the SSD to the FPGA over the on-board
// peer-to-peer switch and classify them entirely on-device.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/drc"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// DRCPolicy selects how Deploy treats static design-rule findings.
type DRCPolicy int

const (
	// DRCEnforce (the default) refuses to deploy a design with error-level
	// findings, returning a *drc.RejectError before the device is touched.
	// Warnings and infos are surfaced as events but do not block.
	DRCEnforce DRCPolicy = iota
	// DRCWarn surfaces all findings as events but never blocks deployment.
	DRCWarn
	// DRCOff skips the design-rule check entirely.
	DRCOff
)

// DeployConfig controls engine deployment.
type DeployConfig struct {
	// Level is the kernel optimization level; zero defaults to
	// LevelFixedPoint, the paper's fully-optimized configuration.
	Level kernels.OptLevel
	// Part is the FPGA part; zero value defaults to the Alveo U200.
	Part fpga.Part
	// SeqLen is the classification window length; zero defaults to 100.
	SeqLen int
	// Scale is the fixed-point scale; zero defaults to 10⁶.
	Scale int64
	// Telemetry, when non-nil, receives the engine's per-classification
	// transfer and compute histograms (engine_transfer_seconds,
	// engine_compute_seconds). Engines deployed against the same registry
	// share the series, aggregating across devices; per-device breakdowns
	// live one layer up in internal/serve.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives the engine's device-level timeline
	// events: SSD/PCIe/DDR transfer stages (emitted by the CSD itself,
	// which Deploy attaches to the tracer) and per-CU kernel events with
	// loop-nest cycle attributions.
	Trace *trace.Tracer
	// TraceName is the trace track group naming this device (one group per
	// physical device); empty defaults to "csd0".
	TraceName string
	// Events, when non-nil, receives the engine's structured events: one
	// info deploy event (with init cost and pipeline shape), plus the
	// per-DMA debug transfer events the CSD emits (Deploy attaches the
	// logger to the device under the TraceName device name).
	Events *eventlog.Logger
	// DRC selects the static design-rule gate policy. The zero value is
	// DRCEnforce: a design with error-level findings (budget overflow,
	// illegal pragma combination, broken dataflow) is refused before any
	// device state is touched, exactly as Vitis refuses to synthesize it.
	DRC DRCPolicy
}

// Engine is a deployed CSD inference engine. It is not safe for concurrent
// use (it owns recurrent kernel state), matching the single-stream dataflow
// of the hardware pipeline; serialize access externally (internal/serve)
// to share one engine between goroutines.
//
// Engine implements infer.Inferencer.
type Engine struct {
	dev  *csd.SmartSSD
	pipe *kernels.Pipeline

	seqBuf   *csd.Buffer
	initTime time.Duration

	// Host staging scratch, sized at Deploy so Predict and PredictStored
	// allocate nothing: encoded holds a live window in the on-flash format,
	// items the window decoded from the sequence buffer.
	encoded []byte
	items   []int

	// Simulated-time latency histograms (see DESIGN.md "Telemetry": the
	// histograms record the calibrated device timing model, not wall time).
	xferHist    *telemetry.Histogram
	computeHist *telemetry.Histogram
	predictions *telemetry.Counter

	// Timeline tracing (nil when DeployConfig.Trace is unset). stages is
	// the fixed per-classification compute timeline — one entry per kernel
	// stage (gate CUs share a stage and overlap) — precomputed at Deploy so
	// the per-classification cost of tracing is a handful of Emit calls.
	tracer     *trace.Tracer
	traceGroup string
	stages     []computeStage
}

// computeStage is one serial stage of the per-classification compute
// timeline: all tracks of a stage run the same interval in parallel (the
// four kernel_gates CUs), and stages execute back to back.
type computeStage struct {
	name   string
	tracks []trace.Track
	dur    time.Duration
	cycles int64 // per track
	loops  []trace.LoopCycles
}

// Deploy initializes the FPGA of the given CSD with the trained model: it
// compiles the model and loads the image onto dev.
//
// The returned engine's initTime accounts the one-time host work: shipping
// the weight file (the text format of §III-A) over the host PCIe link into
// FPGA DRAM. Per-classification calls never pay it again — the paper's
// model is "compiled once and can be updated at the operator's discretion".
func Deploy(dev *csd.SmartSSD, m *lstm.Model, cfg DeployConfig) (*Engine, error) {
	if dev == nil {
		return nil, errors.New("core: nil device")
	}
	img, err := Compile(m, cfg)
	if err != nil {
		return nil, err
	}
	return img.Deploy(dev, cfg.TraceName)
}

// Image is a model compiled for one deployment configuration: the checked
// design's DRC report, the quantized kernel pipeline and the serialized
// weight file — the analogue of the paper's xclbin plus weight file. It is
// built once and loaded onto any number of devices; every engine loaded
// from it shares its quantized parameters. Deploy does not modify the
// Image.
type Image struct {
	cfg     DeployConfig
	pipe    *kernels.Pipeline
	weights []byte
	drc     *drc.Report // nil under DRCOff
}

// Compile does the per-model work of deployment once: the design-rule check
// (with the absint overflow proof), quantization and the weight-text
// serialization. A design with error findings under DRCEnforce is refused
// with a *drc.RejectError, before any device exists to be touched.
//
// The image keeps m's weights as they are now: a model trained further
// afterwards needs a new Compile.
func Compile(m *lstm.Model, cfg DeployConfig) (*Image, error) {
	if m == nil {
		return nil, errors.New("core: nil model")
	}
	img := &Image{cfg: cfg}
	// fail reports a compile failure after the check the same way a
	// successful load does, so a refused or unbuildable design still leaves
	// its findings on the event log.
	fail := func(err error) (*Image, error) {
		if img.drc != nil {
			emitDRCFindings(cfg.Events, *img.drc)
		}
		return nil, err
	}
	kcfg := kernels.Config{Level: cfg.Level, Part: cfg.Part, SeqLen: cfg.SeqLen, Scale: cfg.Scale}
	if cfg.DRC != DRCOff {
		// DesignForModel (not DesignFor): with the trained weights in hand
		// the design carries the interval analysis of internal/absint, so
		// the checker also proves the fixed-point datapath overflow-free at
		// the deployment's scale and window before any kernel is placed.
		design, derr := kernels.DesignForModel(m, kcfg)
		if derr != nil {
			return nil, fmt.Errorf("core: design check: %w", derr)
		}
		rep := drc.Check(design)
		img.drc = &rep
		if !rep.OK() && cfg.DRC == DRCEnforce {
			return fail(&drc.RejectError{Report: rep})
		}
	}
	var err error
	if img.pipe, err = kernels.New(m, kcfg); err != nil {
		return fail(fmt.Errorf("core: build pipeline: %w", err))
	}
	// Host initialization ships the weights exactly as the offline trainer
	// exports them.
	var wbuf bytes.Buffer
	if err := m.WriteText(&wbuf); err != nil {
		return fail(fmt.Errorf("core: serialize weights: %w", err))
	}
	img.weights = wbuf.Bytes()
	return img, nil
}

// Deploy loads the image onto dev: it pushes the weight file to FPGA DRAM
// bank 0, allocates the sequence buffer and wires the image's telemetry,
// trace and event sinks under traceName (empty means "csd0"). Each load
// re-emits the image's DRC findings, so every device's event stream reads
// as if it had been checked on its own.
func (img *Image) Deploy(dev *csd.SmartSSD, traceName string) (*Engine, error) {
	if dev == nil {
		return nil, errors.New("core: nil device")
	}
	cfg := img.cfg
	if img.drc != nil {
		emitDRCFindings(cfg.Events, *img.drc)
	}
	pipe := img.pipe.Clone()

	weightBuf, err := dev.Alloc(int64(len(img.weights)), 0)
	if err != nil {
		return nil, fmt.Errorf("core: allocate weight buffer: %w", err)
	}
	initTime, err := dev.WriteBuffer(weightBuf, img.weights)
	if err != nil {
		return nil, fmt.Errorf("core: load weights: %w", err)
	}

	// Sequence staging buffer in bank 1 (or bank 0 on single-bank devices):
	// the P2P landing zone for SSD-resident sequences.
	seqBank := 0
	if dev.Banks() > 1 {
		seqBank = 1
	}
	seqBuf, err := dev.Alloc(int64(pipe.SeqLen()*csd.ItemBytes), seqBank)
	if err != nil {
		return nil, fmt.Errorf("core: allocate sequence buffer: %w", err)
	}

	reg := cfg.Telemetry
	e := &Engine{
		dev: dev, pipe: pipe, seqBuf: seqBuf, initTime: initTime,
		encoded: make([]byte, 0, seqBuf.Size),
		items:   make([]int, 0, pipe.SeqLen()),
		xferHist: reg.Histogram("engine_transfer_seconds",
			"Simulated SSD-to-FPGA data movement time per classification.", telemetry.Buckets{}),
		computeHist: reg.Histogram("engine_compute_seconds",
			"Simulated FPGA kernel time per classification.", telemetry.Buckets{}),
		predictions: reg.Counter("engine_predictions_total",
			"Classifications completed by deployed engines."),
	}
	group := traceName
	if group == "" {
		group = "csd0"
	}
	if cfg.Trace.Enabled() {
		dev.SetTracer(cfg.Trace, group)
		e.tracer = cfg.Trace
		e.traceGroup = group
		e.stages = computeStages(pipe)
	}
	if cfg.Events != nil {
		dev.SetEventLogger(cfg.Events, group)
		cfg.Events.Info(context.Background(), "core", "engine.deploy",
			eventlog.F("device", group),
			eventlog.F("seq_len", pipe.SeqLen()),
			eventlog.F("gate_cus", pipe.GateCUs()),
			eventlog.F("weight_bytes", len(img.weights)),
			eventlog.F("init_ns", initTime))
	}
	return e, nil
}

// emitDRCFindings reports the design-rule outcome on the event log: one
// summary event, plus one event per finding at a level mirroring its
// severity (drc warns land at eventlog warn, infos at debug).
func emitDRCFindings(events *eventlog.Logger, rep drc.Report) {
	if events == nil || rep.Clean() {
		return
	}
	events.Info(context.Background(), "core", "engine.drc",
		eventlog.F("part", rep.Part),
		eventlog.F("errors", rep.Errors),
		eventlog.F("warnings", rep.Warnings),
		eventlog.F("infos", rep.Infos))
	for _, f := range rep.Findings {
		lvl := eventlog.LevelDebug
		switch f.Severity {
		case drc.SevWarn:
			lvl = eventlog.LevelWarn
		case drc.SevError:
			lvl = eventlog.LevelError
		}
		events.Log(context.Background(), lvl, "core", "engine.drc_finding",
			eventlog.F("rule", f.Rule),
			eventlog.F("kernel", f.Kernel),
			eventlog.F("object", f.Object),
			eventlog.F("message", f.Message))
	}
}

// computeStages precomputes the per-classification compute timeline from
// the pipeline's placed kernels: preprocess → four parallel gate CUs →
// hidden state, each stage's cycles scaled by the window length (and, for
// gates, by the serialization rounds when fewer than four CUs are placed).
// The loop attributions come from the HLS schedules, so they sum exactly to
// each stage's cycle count.
func computeStages(pipe *kernels.Pipeline) []computeStage {
	dev := pipe.Device()
	seq := int64(pipe.SeqLen())
	stage := func(kernel string, mult int64, tracks ...trace.Track) computeStage {
		pk := pipe.Placed(kernel)
		st := computeStage{
			name:   kernel,
			tracks: tracks,
			cycles: pk.CyclesPerInvocation * mult,
			dur:    dev.Duration(pk.CyclesPerInvocation * mult),
		}
		for i, l := range pk.Spec.Loops {
			st.loops = append(st.loops, trace.LoopCycles{
				Name: l.Name, Cycles: pk.Schedules[i].Cycles * mult,
			})
		}
		return st
	}
	gateTracks := make([]trace.Track, pipe.GateCUs())
	for i := range gateTracks {
		gateTracks[i] = trace.Track{Name: fmt.Sprintf("cu-%s-%d", kernels.KernelGates, i)}
	}
	rounds := int64(kernels.GateCUs / pipe.GateCUs())
	return []computeStage{
		stage(kernels.KernelPreprocess, seq, trace.Track{Name: "cu-" + kernels.KernelPreprocess}),
		stage(kernels.KernelGates, rounds*seq, gateTracks...),
		stage(kernels.KernelHiddenState, seq, trace.Track{Name: "cu-" + kernels.KernelHiddenState}),
	}
}

// Timing breaks a classification's simulated latency into data movement and
// FPGA compute. It is an alias of infer.Timing, the breakdown shared by
// every Inferencer implementation.
type Timing = infer.Timing

var _ infer.Inferencer = (*Engine)(nil)

// PredictStored classifies the sequence stored at the given SSD byte
// offset, moving it to the FPGA over the P2P path — the paper's headline
// dataflow with no host involvement. A canceled ctx aborts the call before
// the device is touched.
func (e *Engine) PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, Timing, error) {
	if err := ctx.Err(); err != nil {
		return kernels.Result{}, Timing{}, err
	}
	rec := telemetry.SpanFrom(ctx)
	e.stampJob(rec)
	st := rec.Begin(telemetry.StageTransfer)
	xfer, err := e.dev.TransferP2P(ssdOff, e.seqBuf)
	st.End()
	if err != nil {
		return kernels.Result{}, Timing{}, fmt.Errorf("core: fetch sequence: %w", err)
	}
	return e.classifyBuffer(rec, Timing{Transfer: xfer})
}

// PredictStoredViaHost classifies the stored sequence but stages it through
// host memory — the traditional path, kept for the P2P ablation.
func (e *Engine) PredictStoredViaHost(ctx context.Context, ssdOff int64) (kernels.Result, Timing, error) {
	if err := ctx.Err(); err != nil {
		return kernels.Result{}, Timing{}, err
	}
	rec := telemetry.SpanFrom(ctx)
	e.stampJob(rec)
	st := rec.Begin(telemetry.StageTransfer)
	xfer, err := e.dev.TransferViaHost(ssdOff, e.seqBuf)
	st.End()
	if err != nil {
		return kernels.Result{}, Timing{}, fmt.Errorf("core: fetch sequence via host: %w", err)
	}
	return e.classifyBuffer(rec, Timing{Transfer: xfer})
}

// Predict classifies a host-provided sequence (e.g. a live window from the
// detection pipeline), paying one host-link transfer to stage it. The
// length check runs before the encode so an oversized sequence is rejected
// without paying for serialization.
func (e *Engine) Predict(ctx context.Context, seq []int) (kernels.Result, Timing, error) {
	if err := ctx.Err(); err != nil {
		return kernels.Result{}, Timing{}, err
	}
	if len(seq) != e.pipe.SeqLen() {
		return kernels.Result{}, Timing{}, fmt.Errorf("core: sequence length %d, engine expects %d",
			len(seq), e.pipe.SeqLen())
	}
	rec := telemetry.SpanFrom(ctx)
	st := rec.Begin(telemetry.StageEncode)
	data, err := csd.AppendItems(e.encoded[:0], seq)
	st.End()
	if err != nil {
		return kernels.Result{}, Timing{}, fmt.Errorf("core: encode sequence: %w", err)
	}
	e.encoded = data
	e.stampJob(rec)
	st = rec.Begin(telemetry.StageTransfer)
	xfer, err := e.dev.WriteBuffer(e.seqBuf, data)
	st.End()
	if err != nil {
		return kernels.Result{}, Timing{}, fmt.Errorf("core: stage sequence: %w", err)
	}
	return e.classifyBuffer(rec, Timing{Transfer: xfer})
}

// classifyBuffer runs the kernels over the staged sequence and fills in the
// request record (nil when the request carries none).
func (e *Engine) classifyBuffer(rec *telemetry.Span, t Timing) (kernels.Result, Timing, error) {
	st := rec.Begin(telemetry.StageCompute)
	seq, err := csd.AppendDecodedItems(e.items[:0], e.seqBuf.Bytes())
	if err != nil {
		return kernels.Result{}, Timing{}, fmt.Errorf("core: decode sequence: %w", err)
	}
	e.items = seq
	res, cycles, err := e.pipe.Classify(seq)
	if err != nil {
		return kernels.Result{}, Timing{}, fmt.Errorf("core: classify: %w", err)
	}
	t.Compute = e.pipe.Device().Duration(cycles)
	st.End()
	obs := rec.Begin(telemetry.StageObserve)
	e.emitCompute(rec.Job(), t)
	e.xferHist.ObserveDuration(t.Transfer)
	e.computeHist.ObserveDuration(t.Compute)
	e.predictions.Inc()
	rec.Record(telemetry.PhaseTransfer, t.Transfer)
	rec.Record(telemetry.PhaseCompute, t.Compute)
	obs.End()
	return res, t, nil
}

// stampJob forwards the request's trace correlation ID to the device, so
// the transfer events the CSD emits carry the same job as the scheduler's
// queue event and the engine's kernel events (the raw transfer APIs model
// DMA and take no context of their own).
func (e *Engine) stampJob(rec *telemetry.Span) {
	if e.tracer.Enabled() {
		e.dev.TraceJob(rec.Job())
	}
}

// emitCompute places the classification's kernel stages on the timeline.
// The transfer that fed this classification has just advanced the group
// cursor to its end; compute is modeled as starting once the *first* item
// has landed (the kernels stream items as they arrive), so the tail of the
// transfer overlaps kernel execution on the trace exactly as the dataflow
// hardware behaves. The engine's reported Timing stays the conservative
// serial transfer+compute sum.
func (e *Engine) emitCompute(job int64, t Timing) {
	if e.tracer == nil || len(e.stages) == 0 {
		return
	}
	end := e.tracer.Cursor(e.traceGroup)
	at := end - t.Transfer + t.Transfer/time.Duration(e.pipe.SeqLen())
	if at < 0 {
		at = 0
	}
	for _, st := range e.stages {
		for _, trk := range st.tracks {
			trk.Group = e.traceGroup
			e.tracer.Emit(trace.Event{
				Track: trk, Name: st.name, Cat: trace.CatKernel,
				Start: at, Dur: st.dur, Job: job, Cycles: st.cycles, Loops: st.loops,
			})
		}
		at += st.dur
	}
	e.tracer.Advance(e.traceGroup, at)
}

// PerItemMicros returns the per-item kernel latencies in microseconds
// (preprocess, gates, hidden state, total) — the quantities of Fig. 3 and
// the FPGA row of Table I.
func (e *Engine) PerItemMicros() (preprocess, gates, hidden, total float64) {
	return e.pipe.KernelMicros()
}

// InitTime returns the one-time host initialization cost paid at Deploy.
func (e *Engine) InitTime() time.Duration { return e.initTime }

// Pipeline exposes the kernel pipeline (for benchmarks and diagnostics).
func (e *Engine) Pipeline() *kernels.Pipeline { return e.pipe }

// Device exposes the CSD the engine is deployed on.
func (e *Engine) Device() *csd.SmartSSD { return e.dev }

// SeqLen returns the classification window length.
func (e *Engine) SeqLen() int { return e.pipe.SeqLen() }

// ScanResult is the outcome of a background scan over stored sequences.
type ScanResult struct {
	// Results are per-sequence classifications, in offset order.
	Results []kernels.Result
	// Flagged counts ransomware verdicts.
	Flagged int
	// Timing is the aggregate simulated device time (transfers + compute).
	Timing Timing
}

// OffsetError attributes a scan failure to the SSD offset that caused it.
type OffsetError struct {
	// Offset is the failing SSD byte offset.
	Offset int64
	// Index is the offset's position in the scanned slice.
	Index int
	// Err is the underlying cause.
	Err error
}

func (e *OffsetError) Error() string {
	return fmt.Sprintf("core: scan offset %d (index %d): %v", e.Offset, e.Index, e.Err)
}

// Unwrap returns the underlying cause.
func (e *OffsetError) Unwrap() error { return e.Err }

// ScanStored classifies a batch of sequences resident on the SSD — the
// background-scanning deployment the paper's introduction motivates ("data
// centers can execute the classifier continuously in the background ...
// without exhausting the CPU"). Each sequence moves over the P2P path; the
// host never touches the data.
//
// On a per-offset failure the scan stops, but the classifications completed
// so far are returned alongside an *OffsetError naming the failing offset
// and wrapping the cause; a canceled ctx likewise returns the partial
// results with ctx.Err().
func (e *Engine) ScanStored(ctx context.Context, offsets []int64) (*ScanResult, error) {
	if len(offsets) == 0 {
		return nil, errors.New("core: no offsets to scan")
	}
	out := &ScanResult{Results: make([]kernels.Result, 0, len(offsets))}
	for i, off := range offsets {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		res, timing, err := e.PredictStored(ctx, off)
		if err != nil {
			return out, &OffsetError{Offset: off, Index: i, Err: err}
		}
		out.Results = append(out.Results, res)
		if res.Ransomware {
			out.Flagged++
		}
		out.Timing.Transfer += timing.Transfer
		out.Timing.Compute += timing.Compute
	}
	return out, nil
}
