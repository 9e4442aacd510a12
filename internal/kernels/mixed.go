package kernels

// Mixed precision — the paper's §VI future direction, implemented here as
// an optional fourth configuration.
//
// The fully-unrolled fixed-point gate MACs need one DSP slice per multiply:
// 4·H·(O+H) = 5,120 DSPs for the paper model, which fits the Alveo U200 but
// not the SmartSSD's KU15P (1,968). Mixed precision quantizes the gate
// *inputs* (weights, embeddings, hidden state) to a narrow scale whose
// operands fit 8 bits, letting the synthesizer pack four multiplies into
// each DSP48E2 — 1,280 DSPs total — while the precision-sensitive cell
// path (Ct accumulation, softsign, FC head) stays at the full 10⁶ scale.
// That is exactly the paper's proposal: "performing operations in lower
// precision where high precision is not necessary, and in higher precision
// where greater accuracy is required".
//
// The price is quantization error in the gate pre-activations; the
// LevelMixed tests and the mixed-precision ablation quantify the accuracy
// cost against the DSP savings.

import (
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/hls"
	"github.com/kfrida1/csdinf/internal/lstm"
)

// NarrowScale is the low-precision scale for gate inputs: 10² keeps the
// scaled weights within 8 bits (|w| ≲ 1.27), enabling 4-per-DSP packing.
const NarrowScale = 100

// DSPPackFactor is how many narrow multiplies one DSP slice executes.
const DSPPackFactor = 4

// quantizeNarrow fills the pipeline's narrow-scale parameter copies.
func (p *Pipeline) quantizeNarrow() {
	m := p.model
	p.nEmbed = p.narrow.QuantizeSlice(m.Embedding.Data)
	p.nWx = gateMajor(p.narrow, m, func(g lstm.Gate) []float64 { return g.Wx.Data })
	p.nWh = gateMajor(p.narrow, m, func(g lstm.Gate) []float64 { return g.Wh.Data })
	// Biases join after the MAC array; keep them wide.
	p.qB = gateMajor(p.arith, m, func(g lstm.Gate) []float64 { return g.B })
	p.qFCW = p.arith.QuantizeSlice(m.FCW)
	p.qFCB = p.arith.FromFloat(m.FCB)
}

// stepMixed executes one item with narrow gate MACs and a wide cell path.
func (p *Pipeline) stepMixed(item int) (Result, bool) {
	x := row(p.nEmbed, item, p.cfg.EmbedDim)

	// h(t-1) is stored wide; requantize the copy handed to the gate CUs,
	// as the hardware's width converter does on the h_copy path.
	for k, v := range p.hQ {
		p.hNarrow[k] = p.narrow.FromFloat(p.arith.ToFloat(v))
	}

	p.narrow.MatVec(p.gx, p.nWx, x)
	p.narrow.MatVec(p.gh, p.nWh, p.hNarrow)
	for j := range p.gate {
		pre := p.narrow.Add(p.gx[j], p.gh[j])
		// Widen the narrow-scale pre-activation to the wide scale. The wide
		// scale is an exact multiple of NarrowScale, so Rescale is the exact
		// widening multiply — but routed through the sanctioned conversion
		// rather than a raw scale-ratio product.
		p.gate[j] = p.arith.Add(p.arith.Rescale(pre, p.narrow), p.qB[j])
	}
	return p.hiddenStateFixed()
}

// mixedGatesSpec is gatesSpec at the mixed level: the MAC loop fully
// unrolls, but DSPPackFactor narrow multiplies share each DSP, quartering
// the DSP bill (4·H·(O+H)/4 = 1,280 total for the paper model — inside the
// KU15P's budget).
func mixedGatesSpec(cfg lstm.Config, gateCUs int) fpga.KernelSpec {
	h, o := cfg.HiddenSize, cfg.EmbedDim
	macs := h * (o + h)
	packed := (macs + DSPPackFactor - 1) / DSPPackFactor

	mac := hls.Loop{
		// One iteration per packed DSP: a 4-way SIMD multiply plus the
		// partial-sum adds.
		Name: "mac_packed", Trip: packed,
		Body:           []hls.Op{hls.IntMul, hls.IntAdd, hls.IntAdd, hls.IntAdd, hls.IntAdd},
		Pipeline:       true,
		Unroll:         packed,
		ArrayPartition: true,
	}
	return fpga.KernelSpec{
		Name:  KernelGates,
		CUs:   gateCUs,
		Loops: []hls.Loop{mac},
		Buffers: []hls.Buffer{
			// 8-bit weights: a quarter of the 32-bit words.
			{Name: "weights", Words: (macs + 3) / 4, PartitionComplete: true},
			{Name: "x_in", Words: (o + 3) / 4, PartitionComplete: true},
			{Name: "h_in", Words: (h + 3) / 4, PartitionComplete: true},
		},
	}
}
