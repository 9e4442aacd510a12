// Package kernels implements the paper's five-kernel LSTM inference pipeline
// (Fig. 2) as it executes on the CSD's FPGA:
//
//   - kernel_preprocess consumes one item of a fully-formed sequence and
//     produces its embedding (the one-hot × M×O dot product), making four
//     copies so each gate compute unit owns private inputs (§III-C);
//   - four kernel_gates compute units run in parallel, one per gate
//     (i, f, o, C'), each computing act(Wx·x + Wh·h + b);
//   - kernel_hidden_state keeps the cell state entirely local (avoiding a
//     kernel-to-kernel transfer of Ct, §III-B), computes
//     Ct = f⊙C(t-1) + i⊙C' and h = o⊙act(Ct), maintains the static item
//     counter, and applies the fully-connected head when the counter reaches
//     the sequence length.
//
// The pipeline is simultaneously *functional* — it really computes the
// classification, bit-faithful to the paper's fixed-point arithmetic at the
// OptFixedPoint level — and *timed*: each kernel carries an HLS loop-nest
// descriptor whose schedule on the FPGA model yields per-item latencies.
// Optimization levels are cumulative, matching Fig. 3's presentation:
// LevelVanilla (kernel parallelization only) → LevelII (+ PIPELINE, UNROLL,
// ARRAY_PARTITION) → LevelFixedPoint (+ scaled-integer arithmetic).
package kernels

import (
	"errors"
	"fmt"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/tensor"
)

// OptLevel selects the cumulative optimization level of Fig. 3.
type OptLevel int

// Optimization levels, cumulative left to right.
const (
	// LevelVanilla has only the kernel parallelization of §III-C: four gate
	// CUs plus dataflow between kernels. Floating-point arithmetic.
	LevelVanilla OptLevel = iota + 1
	// LevelII adds the initiation-interval optimizations of §III-D:
	// #pragma HLS PIPELINE II=1, UNROLL, and ARRAY_PARTITION complete.
	LevelII
	// LevelFixedPoint additionally converts all arithmetic to scale-10⁶
	// fixed point, freeing enough DSPs to fully unroll the gate MACs.
	LevelFixedPoint
	// LevelMixed implements the paper's §VI future direction: narrow
	// (8-bit, DSP-packed) gate MACs with a full-precision cell path. It
	// quarters the gate DSP bill so the design fits the SmartSSD's KU15P.
	// Not part of Fig. 3; see internal/kernels/mixed.go.
	LevelMixed
)

// String returns the level name used in Fig. 3.
func (l OptLevel) String() string {
	switch l {
	case LevelVanilla:
		return "Vanilla"
	case LevelII:
		return "II"
	case LevelFixedPoint:
		return "Fixed-point"
	case LevelMixed:
		return "Mixed-precision"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(l))
	}
}

// Levels lists the optimization levels in Fig. 3 order of application.
var Levels = []OptLevel{LevelVanilla, LevelII, LevelFixedPoint}

// Kernel names as they appear in the paper.
const (
	KernelPreprocess  = "kernel_preprocess"
	KernelGates       = "kernel_gates"
	KernelHiddenState = "kernel_hidden_state"
)

// GateCUs is the number of parallel kernel_gates compute units (§III-C).
const GateCUs = 4

// Pipeline is a deployed five-kernel inference pipeline: quantized (or
// float) weights, FPGA placement, and per-item recurrent state.
//
// A Pipeline is not safe for concurrent use; its recurrent state advances
// with every ProcessItem call. Clone gives each concurrent user its own
// state over the same parameters.
type Pipeline struct {
	cfg   lstm.Config
	level OptLevel
	model *lstm.Model

	dev    *fpga.Device
	placed map[string]*fpga.PlacedKernel

	arith   fixed.Arith
	narrow  fixed.Arith
	fact    activation.Fixed
	gateCUs int
	probe   NumericProbe

	// par is the quantized model (nil at the float levels). New builds it,
	// nothing writes it afterwards, and every Clone shares it.
	par *params

	// Per-item scratch, allocated once per pipeline so a step allocates
	// nothing.
	gx, gh  []fixed.Value    // 4H input and recurrent gate products (LevelMixed)
	gate    []fixed.Value    // 4H pre-activations, activated in place
	hNarrow []fixed.Value    // H: h(t-1) requantized for LevelMixed
	xF      tensor.Vector    // O: float embedding (Vanilla / II)
	gateF   [4]tensor.Vector // H per gate: pre-activation, activated in place
	tmpF    tensor.Vector    // H: Wh·h(t-1) for the gate being computed
	cellAct func(float64) float64

	// Recurrent state.
	seqLen  int
	counter int
	hF, cF  tensor.Vector // float state (Vanilla / II)
	hQ, cQ  []fixed.Value // fixed state (FixedPoint / Mixed)
}

// Config describes pipeline deployment.
type Config struct {
	// Level is the optimization level (default LevelFixedPoint, the paper's
	// production configuration).
	Level OptLevel
	// Part is the FPGA part (default fpga.AlveoU200, the paper's platform).
	Part fpga.Part
	// SeqLen is the pre-established sequence length consumed per
	// classification (default 100, the paper's window).
	SeqLen int
	// Scale is the fixed-point scale (default fixed.DefaultScale = 10⁶).
	Scale int64
	// GateCUs overrides the number of kernel_gates compute units (default
	// 4, the paper's §III-C parallelization). With fewer CUs the four gate
	// computations serialize onto the available units, which the gate-CU
	// ablation quantifies. Must divide 4.
	GateCUs int
	// Streaming connects the kernels with on-chip AXI4-Stream FIFOs
	// instead of global-memory buffers — the additional acceleration the
	// paper notes "can be easily ported to the kernel implementation ...
	// if the FPGA supports it" (§III-C). It removes the AXI burst
	// prologues and the explicit x/h copy loops. Requires LevelII or
	// above (the vanilla configuration predates the pragma work).
	Streaming bool
}

func (c *Config) defaults() {
	if c.Level == 0 {
		c.Level = LevelFixedPoint
	}
	if c.Part.Name == "" {
		c.Part = fpga.AlveoU200
	}
	if c.SeqLen == 0 {
		c.SeqLen = 100
	}
	if c.Scale == 0 {
		c.Scale = fixed.DefaultScale
	}
	if c.GateCUs == 0 {
		c.GateCUs = GateCUs
	}
}

// New deploys the model onto a fresh FPGA device at the given optimization
// level, quantizing weights when the level uses fixed point. It fails if the
// scheduled kernels do not fit the part's fabric — which is exactly what
// happens when LevelFixedPoint's fully-unrolled gate MACs are placed on a
// part smaller than the paper's U200.
func New(m *lstm.Model, cfg Config) (*Pipeline, error) {
	if m == nil {
		return nil, errors.New("kernels: nil model")
	}
	cfg.defaults()
	specs, err := Specs(m.Config(), cfg)
	if err != nil {
		return nil, err
	}
	if cfg.SeqLen <= 0 {
		return nil, fmt.Errorf("kernels: sequence length must be positive, got %d", cfg.SeqLen)
	}
	arith, err := fixed.New(cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	narrow, err := fixed.New(NarrowScale)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}

	dev, err := fpga.NewDevice(cfg.Part)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	p := &Pipeline{
		cfg:     m.Config(),
		level:   cfg.Level,
		model:   m,
		dev:     dev,
		placed:  make(map[string]*fpga.PlacedKernel, 3),
		arith:   arith,
		narrow:  narrow,
		fact:    activation.NewFixed(arith),
		seqLen:  cfg.SeqLen,
		gateCUs: cfg.GateCUs,
	}

	for _, spec := range specs {
		pk, err := dev.Place(spec)
		if err != nil {
			return nil, fmt.Errorf("kernels: place %s at level %s: %w", spec.Name, cfg.Level, err)
		}
		p.placed[spec.Name] = pk
	}

	switch cfg.Level {
	case LevelFixedPoint:
		p.par = quantize(arith, m)
	case LevelMixed:
		p.par = quantizeNarrow(arith, narrow, m)
	default:
		if p.cellAct, err = p.cfg.CellActivation.Func(); err != nil {
			return nil, fmt.Errorf("kernels: %w", err)
		}
	}
	p.allocState()
	return p, nil
}

// Clone returns a pipeline with p's level, configuration and placement that
// shares p's quantized parameters, input-projection table included, but
// owns its scratch and recurrent state, freshly reset. Clones of one
// pipeline may classify concurrently with each other and with p: the
// shared parameters, placement and FPGA device are only read after New.
// The numeric probe is not carried over.
func (p *Pipeline) Clone() *Pipeline {
	c := &Pipeline{
		cfg:     p.cfg,
		level:   p.level,
		model:   p.model,
		dev:     p.dev,
		placed:  p.placed,
		arith:   p.arith,
		narrow:  p.narrow,
		fact:    p.fact,
		gateCUs: p.gateCUs,
		par:     p.par,
		cellAct: p.cellAct,
		seqLen:  p.seqLen,
	}
	c.allocState()
	return c
}

// allocState allocates the per-item scratch and the recurrent state of p's
// level and resets them. New and Clone both call it, so no two pipelines
// share anything a step writes.
func (p *Pipeline) allocState() {
	h := p.cfg.HiddenSize
	switch p.level {
	case LevelFixedPoint, LevelMixed:
		p.gate = make([]fixed.Value, 4*h)
		p.hQ, p.cQ = make([]fixed.Value, h), make([]fixed.Value, h)
		if p.level == LevelMixed {
			p.gx, p.gh = make([]fixed.Value, 4*h), make([]fixed.Value, 4*h)
			p.hNarrow = make([]fixed.Value, h)
		}
	default:
		p.xF = tensor.NewVector(p.cfg.EmbedDim)
		p.tmpF = tensor.NewVector(h)
		for g := range p.gateF {
			p.gateF[g] = tensor.NewVector(h)
		}
		p.hF, p.cF = tensor.NewVector(h), tensor.NewVector(h)
	}
	p.Reset()
}

// params is a pipeline's quantized model. quantize (or quantizeNarrow)
// builds it once, nothing writes it afterwards, and every Clone of the
// pipeline holds the same pointer, so a fleet's engines keep one copy
// between them. The weight matrices are row-major and gate-major: row g·H+r
// of qWx and qWh is row r of gate g, so one MatVec computes all four gate
// CUs' products.
type params struct {
	qEmbed []fixed.Value // M rows of O values
	qWx    fixed.Matrix  // 4H rows of O values
	qWh    fixed.Matrix  // 4H rows of H values
	qB     []fixed.Value // 4H biases, also used by LevelMixed
	qFCW   []fixed.Value
	qFCB   fixed.Value

	// xProj is the bias-folded input projection (LevelFixedPoint only):
	// VocabSize rows of 4H values, row v holding qWx·qEmbed[v] + qB. The
	// product depends only on the token, so stepFixed looks it up instead
	// of computing it. The probed shadow datapath never reads it.
	xProj []fixed.Value

	// Narrow-scale parameters (LevelMixed only; see mixed.go), laid out
	// like their wide counterparts.
	nEmbed []fixed.Value
	nWx    fixed.Matrix
	nWh    fixed.Matrix
}

// quantize converts all model parameters to fixed point at arith a, the
// host-side scaling step of §III-D ("we multiply the floating-point values
// of weights, biases, and embeddings by this factor before the host
// initialization"), and builds the input-projection table from them.
func quantize(a fixed.Arith, m *lstm.Model) *params {
	cfg := m.Config()
	q := &params{
		qEmbed: a.QuantizeSlice(m.Embedding.Data),
		qWx:    fixed.NewMatrix(gateMajor(a, m, func(g lstm.Gate) []float64 { return g.Wx.Data }), cfg.EmbedDim),
		qWh:    fixed.NewMatrix(gateMajor(a, m, func(g lstm.Gate) []float64 { return g.Wh.Data }), cfg.HiddenSize),
		qB:     gateMajor(a, m, func(g lstm.Gate) []float64 { return g.B }),
		qFCW:   a.QuantizeSlice(m.FCW),
		qFCB:   a.FromFloat(m.FCB),
	}
	rows := len(q.qB)
	q.xProj = make([]fixed.Value, cfg.VocabSize*rows)
	for v := 0; v < cfg.VocabSize; v++ {
		proj := row(q.xProj, v, rows)
		a.MatVec(proj, q.qWx, row(q.qEmbed, v, cfg.EmbedDim))
		for j, b := range q.qB {
			proj[j] = a.Add(proj[j], b)
		}
	}
	return q
}

// gateMajor quantizes one parameter of the four gates at arith a and stacks
// them in canonical gate order. Each gate's parameter is already row-major,
// so the result is the gate-major 4H-row matrix (or 4H-vector) MatVec reads.
func gateMajor(a fixed.Arith, m *lstm.Model, param func(lstm.Gate) []float64) []fixed.Value {
	n := len(param(m.Gates[0]))
	out := make([]fixed.Value, len(m.Gates)*n)
	for g, gate := range m.Gates {
		for i, f := range param(gate)[:n] {
			out[g*n+i] = a.FromFloat(f)
		}
	}
	return out
}

// row returns row r of the row-major matrix m whose rows are n wide.
func row(m []fixed.Value, r, n int) []fixed.Value { return m[r*n : (r+1)*n] }

// Reset clears the recurrent state and item counter for a new sequence, in
// place.
func (p *Pipeline) Reset() {
	p.counter = 0
	clear(p.hQ)
	clear(p.cQ)
	clear(p.hF)
	clear(p.cF)
}

// Level returns the pipeline's optimization level.
func (p *Pipeline) Level() OptLevel { return p.level }

// Device returns the FPGA device the pipeline is placed on.
func (p *Pipeline) Device() *fpga.Device { return p.dev }

// Placed returns the placed kernel by name (nil if not placed), giving
// profilers access to the loop schedules behind the latency figures.
func (p *Pipeline) Placed(name string) *fpga.PlacedKernel { return p.placed[name] }

// InputProjection returns the bias-folded input-projection table that
// LevelFixedPoint reads (nil at the other levels): VocabSize rows of 4H
// values, row v holding Wx·embed(v) + b for all four gates in gate-major
// order. Every Clone returns the same backing array. The table is shared and
// must not be modified.
func (p *Pipeline) InputProjection() []fixed.Value {
	if p.par == nil {
		return nil
	}
	return p.par.xProj
}

// GateCUs returns the number of kernel_gates compute units in this
// deployment (4 in the paper's configuration; fewer under the gate-CU
// ablation).
func (p *Pipeline) GateCUs() int { return p.gateCUs }

// SeqLen returns the pre-established sequence length.
func (p *Pipeline) SeqLen() int { return p.seqLen }

// Result is the classification produced once a full sequence has been
// consumed.
type Result struct {
	// Ransomware is the hard decision (logit >= 0).
	Ransomware bool
	// Probability is the sigmoid of the head logit.
	Probability float64
	// Logit is the raw head output.
	Logit float64
}

// ProcessItem advances the pipeline by one sequence item, mirroring the
// hardware dataflow: preprocess → four parallel gate CUs → hidden state.
// When the static counter reaches the sequence length, the FC head fires and
// a Result is returned with done = true; the state then resets for the next
// sequence, as the hardware counter does.
func (p *Pipeline) ProcessItem(item int) (res Result, done bool, err error) {
	if item < 0 || item >= p.cfg.VocabSize {
		return Result{}, false, fmt.Errorf("%w: item %d, vocab %d",
			lstm.ErrItemOutOfRange, item, p.cfg.VocabSize)
	}
	switch {
	case p.level == LevelMixed:
		res, done = p.stepMixed(item)
	case p.level == LevelFixedPoint:
		res, done = p.stepFixed(item)
	default:
		res, done, err = p.stepFloat(item)
		if err != nil {
			return Result{}, false, err
		}
	}
	if done {
		p.Reset()
	}
	return res, done, nil
}

// Classify resets the pipeline and consumes the whole sequence, which must
// be exactly SeqLen items (the paper's kernels consume "a fully-formed data
// sequence"). It returns the classification and the simulated FPGA cycles.
func (p *Pipeline) Classify(seq []int) (Result, int64, error) {
	if len(seq) != p.seqLen {
		return Result{}, 0, fmt.Errorf("kernels: sequence length %d, pipeline expects %d", len(seq), p.seqLen)
	}
	p.Reset()
	var last Result
	var done bool
	for t, item := range seq {
		var err error
		last, done, err = p.ProcessItem(item)
		if err != nil {
			return Result{}, 0, fmt.Errorf("kernels: item %d: %w", t, err)
		}
	}
	if !done {
		return Result{}, 0, errors.New("kernels: sequence ended before counter fired")
	}
	_, _, _, perItem := p.ItemCycles()
	return last, perItem * int64(p.seqLen), nil
}

// stepFloat executes one item in floating point (Vanilla and II levels).
// The arithmetic is identical to the offline model's forward pass; only the
// schedule differs between the two levels.
func (p *Pipeline) stepFloat(item int) (Result, bool, error) {
	m := p.model

	// kernel_preprocess: embedding via one-hot dot product, copied 4×.
	x := p.xF
	if err := m.Embed(item, x); err != nil {
		return Result{}, false, err
	}

	// Four kernel_gates CUs in parallel, each with its own copies of x and
	// h(t-1).
	gates := &p.gateF
	for g := range gates {
		pre := gates[g]
		m.Gates[g].Wx.MulVec(pre, x)
		m.Gates[g].Wh.MulVec(p.tmpF, p.hF)
		pre.Add(p.tmpF)
		pre.Add(m.Gates[g].B)
		if lstm.GateName(g+1) == lstm.GateCandidate {
			for i, v := range pre {
				pre[i] = p.cellAct(v)
			}
		} else {
			for i, v := range pre {
				pre[i] = activation.SigmoidF(v)
			}
		}
	}

	// kernel_hidden_state: cell update, activation, output gate, counter.
	i, f, o, cand := gates[0], gates[1], gates[2], gates[3]
	for k := range p.cF {
		p.cF[k] = f[k]*p.cF[k] + i[k]*cand[k]
		p.hF[k] = o[k] * p.cellAct(p.cF[k])
	}
	p.counter++
	if p.counter < p.seqLen {
		return Result{}, false, nil
	}
	logit := m.Logit(p.hF)
	return Result{Ransomware: logit >= 0, Probability: activation.SigmoidF(logit), Logit: logit}, true, nil
}

// stepFixed executes one item entirely in scale-10⁶ fixed point — the
// arithmetic the FPGA DSP slices perform at LevelFixedPoint. Each gate
// pre-activation is Dot(Wx row, x) + Dot(Wh row, h) + b. The first and last
// terms depend only on the item, so they come from the item's row of the
// input-projection table; one gate-major MatVec computes Wh·h for all four
// gates into preallocated scratch. Add is wrapping int64 addition, so
// (Wx·x + b) + Wh·h is bit-identical to (Wx·x + Wh·h) + b even when a sum
// wraps.
func (p *Pipeline) stepFixed(item int) (Result, bool) {
	if p.probe != nil {
		return p.stepFixedProbed(item)
	}
	p.arith.MatVec(p.gate, p.par.qWh, p.hQ)
	for j, x := range row(p.par.xProj, item, len(p.gate)) {
		p.gate[j] = p.arith.Add(x, p.gate[j])
	}
	return p.hiddenStateFixed()
}

// hiddenStateFixed runs kernel_hidden_state at the wide scale on the 4H
// gate pre-activations in p.gate: updateState, the item counter, and the FC
// head when the counter fires. LevelFixedPoint and LevelMixed share it:
// they differ only in how the pre-activations are computed.
func (p *Pipeline) hiddenStateFixed() (Result, bool) {
	p.updateState()
	p.counter++
	if p.counter < p.seqLen {
		return Result{}, false
	}
	logit := p.arith.Add(p.arith.Dot(p.par.qFCW, p.hQ), p.par.qFCB)
	fl := p.arith.ToFloat(logit)
	return Result{Ransomware: logit >= 0, Probability: activation.SigmoidF(fl), Logit: fl}, true
}

// updateState activates p.gate in place (PLAN sigmoid for i, f, o;
// softsign for C') and updates the recurrent state: Ct = f⊙C(t-1) + i⊙C',
// h = o⊙softsign(Ct). Each step is one slice call, which runs the AVX-512
// kernel wherever its guard admits the call and the scalar loop otherwise,
// bit-identical either way. It reports whether all five calls ran
// fixed.KernelVector, which TestPaperModelElementwiseKernel requires of
// the paper model.
func (p *Pipeline) updateState() (vector bool) {
	const v = fixed.KernelVector
	h := p.cfg.HiddenSize
	vector = p.fact.SigmoidSlice(p.gate[:3*h]) == v            // i, f, o (canonical order)
	vector = p.fact.SoftsignSlice(p.gate[3*h:]) == v && vector // C'

	i, f, o, c := row(p.gate, 0, h), row(p.gate, 1, h), row(p.gate, 2, h), row(p.gate, 3, h)
	vector = p.arith.MulAddSlice(p.cQ, f, p.cQ, i, c) == v && vector
	// C' is dead once the cell is updated, so its row holds softsign(Ct).
	copy(c, p.cQ)
	vector = p.fact.SoftsignSlice(c) == v && vector
	return p.arith.MulSlice(p.hQ, o, c) == v && vector
}

// ItemCycles returns the simulated per-item latency of each kernel and the
// total. The four gate CUs run in parallel (§III-C), so the gates figure is
// the latency of one CU — the maximum across identical CUs. The total is
// the sum of the three stages, matching the paper's arithmetic for the
// "total execution time" of a forward pass (e.g. 0.8 + 0.00333 + 1.348 ≈
// 2.15133 µs at full optimization).
func (p *Pipeline) ItemCycles() (preprocess, gates, hidden, total int64) {
	preprocess = p.placed[KernelPreprocess].CyclesPerInvocation
	// With fewer than four CUs the four gate computations serialize onto
	// the available units in 4/gateCUs rounds (the gate-CU ablation).
	rounds := int64(GateCUs / p.gateCUs)
	gates = p.placed[KernelGates].CyclesPerInvocation * rounds
	hidden = p.placed[KernelHiddenState].CyclesPerInvocation
	return preprocess, gates, hidden, preprocess + gates + hidden
}

// KernelMicros returns per-kernel and total per-item latency in
// microseconds, the unit of Fig. 3.
func (p *Pipeline) KernelMicros() (preprocess, gates, hidden, total float64) {
	pc, gc, hc, tc := p.ItemCycles()
	return p.dev.Microseconds(pc), p.dev.Microseconds(gc), p.dev.Microseconds(hc), p.dev.Microseconds(tc)
}

// PipelinedItemCycles returns the steady-state per-item cycles when the
// dataflow overlap of §III-C is credited: kernel_preprocess works on item
// t+1 while the gate CUs and kernel_hidden_state process item t, so the
// pipeline initiation interval is max(preprocess, gates+hidden) rather than
// the sum. The paper quotes the sum; this figure quantifies the additional
// headroom (used by the dataflow ablation).
func (p *Pipeline) PipelinedItemCycles() int64 {
	pc, gc, hc, _ := p.ItemCycles()
	rest := gc + hc
	if pc > rest {
		return pc
	}
	return rest
}
