package kernels

// Numeric observability for the fixed-point datapath.
//
// stepFixed runs on the unchecked fixed ops — plain int64 arithmetic that
// wraps silently, like the FPGA's fixed-width DSP cascade. With a probe
// installed the pipeline switches to stepFixedProbed, a shadow datapath built
// on the overflow-checked variants in internal/fixed: every intermediate is
// bit-identical to the fast path (the checked ops return the same wrapped
// value on overflow), but each one is reported to the probe under the
// internal/absint stage name it corresponds to, together with any wrap the
// checked op detected. FuzzIntervalSoundness in internal/absint uses this to
// cross-check the static interval analysis against concrete executions.

import (
	"github.com/kfrida1/csdinf/internal/absint"
	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/lstm"
)

// NumericProbe observes one fixed-point intermediate of the LevelFixedPoint
// datapath. stage is an internal/absint stage name (absint.StageEmbed,
// absint.GateStage(...), ...), v is exactly the value the production datapath
// computes at that point, and wrapErr is non-nil when the true mathematical
// result escaped int64 — in which case v is the wrapped value the hardware
// would carry onward.
type NumericProbe func(stage string, v fixed.Value, wrapErr error)

// SetNumericProbe installs probe on the pipeline; nil removes it. Only
// LevelFixedPoint consults the probe — the float levels have no fixed-width
// intermediates to watch, and LevelMixed's narrow path is bounded by
// construction (8-bit operands cannot overflow a 64-bit accumulator at the
// kernel shapes New accepts).
func (p *Pipeline) SetNumericProbe(probe NumericProbe) { p.probe = probe }

// stepFixedProbed is stepFixed rebuilt on the checked shadow ops. The
// arithmetic is intentionally identical — Dot is DotRaw + FromRaw, Mul is
// MulRaw + FromRaw, Add is AddChecked's wrapped sum — so the Result returned
// here always equals the fast path's (TestProbedPathMatchesFast pins this).
// It is also written independently of the fast path: one row at a time, with
// no MatVec, no shared scratch and no shared cell loop, which is what lets
// FuzzFixedFastMatchesShadow use it as the fast path's oracle.
func (p *Pipeline) stepFixedProbed(item int) (Result, bool) {
	cfg := p.cfg
	probe := p.probe
	nx, nh := cfg.EmbedDim, cfg.HiddenSize
	x := row(p.qEmbed, item, nx)
	for _, v := range x {
		probe(absint.StageEmbed, v, nil)
	}

	var gates [4][]fixed.Value
	for g := 0; g < 4; g++ {
		name := lstm.GateName(g + 1)
		out := make([]fixed.Value, cfg.HiddenSize)
		for r := 0; r < cfg.HiddenSize; r++ {
			gr := g*nh + r // gate-major row
			wxRaw, wxErr := p.arith.DotRaw(row(p.qWx, gr, nx), x)
			probe(absint.GateStage(name, absint.StageWxAcc), wxRaw, wxErr)
			whRaw, whErr := p.arith.DotRaw(row(p.qWh, gr, nh), p.hQ)
			probe(absint.GateStage(name, absint.StageWhAcc), whRaw, whErr)
			pre, preErr := p.arith.AddChecked(p.arith.FromRaw(wxRaw), p.arith.FromRaw(whRaw))
			pre, bErr := p.arith.AddChecked(pre, p.qB[gr])
			if preErr == nil {
				preErr = bErr
			}
			probe(absint.GateStage(name, absint.StagePreact), pre, preErr)
			if name == lstm.GateCandidate {
				out[r] = p.fact.Softsign(pre)
			} else {
				out[r] = p.fact.Sigmoid(pre)
			}
			probe(absint.GateStage(name, absint.StageGateOut), out[r], nil)
		}
		gates[g] = out
	}

	i, f, o, cand := gates[0], gates[1], gates[2], gates[3]
	for k := 0; k < cfg.HiddenSize; k++ {
		fcRaw, fcErr := p.arith.MulRaw(f[k], p.cQ[k])
		probe(absint.StageCellForgetRaw, fcRaw, fcErr)
		icRaw, icErr := p.arith.MulRaw(i[k], cand[k])
		probe(absint.StageCellInputRaw, icRaw, icErr)
		cell, cellErr := p.arith.AddChecked(p.arith.FromRaw(fcRaw), p.arith.FromRaw(icRaw))
		probe(absint.StageCellState, cell, cellErr)
		p.cQ[k] = cell
		act := p.fact.Softsign(cell)
		probe(absint.StageCellAct, act, nil)
		oRaw, oErr := p.arith.MulRaw(o[k], act)
		probe(absint.StageHiddenRaw, oRaw, oErr)
		p.hQ[k] = p.arith.FromRaw(oRaw)
		probe(absint.StageHiddenState, p.hQ[k], nil)
	}
	p.counter++
	if p.counter < p.seqLen {
		return Result{}, false
	}
	fcAcc, accErr := p.arith.DotRaw(p.qFCW, p.hQ)
	probe(absint.StageFCAcc, fcAcc, accErr)
	logit, logitErr := p.arith.AddChecked(p.arith.FromRaw(fcAcc), p.qFCB)
	probe(absint.StageLogit, logit, logitErr)
	fl := p.arith.ToFloat(logit)
	return Result{Ransomware: logit >= 0, Probability: activation.SigmoidF(fl), Logit: fl}, true
}
