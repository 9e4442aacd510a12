package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
)

// reference holds the expected answer for every generated input, computed
// before timing by a fresh fixed-point kernels.Pipeline per goroutine.
type reference struct {
	// results[i] is the verdict for workload.windows[i].
	results []kernels.Result
	// passes[s] is stream s's expected stream-detect pass.
	passes []*pass
	// compute is the simulated kernel time of one window: the deployment's
	// per-item cycles × seqLen on the FPGA clock.
	compute time.Duration
	cycles  int64
	// hostXfer and p2pXfer are the simulated transfer of one window over
	// the host-staged path (live windows) and the P2P path (stored scans).
	hostXfer time.Duration
	p2pXfer  time.Duration
	// recall and fpr score the reference verdicts against ground truth:
	// per process for stream-detect (blocked or not), per window otherwise.
	recall, fpr float64
}

// pass is one replay of a stream-detect stream: its windows in order, the
// verdicts, and the processes it blocked.
type pass struct {
	windows   [][]int
	results   []kernels.Result
	blocks    []int
	calls     int
	evictions int
	// partial marks a pass stopped at the run's deadline.
	partial bool
}

// refPredictor classifies directly on a kernels.Pipeline and records every
// window it is asked for, so a reference stream pass can be replayed.
type refPredictor struct {
	pipe    *kernels.Pipeline
	windows [][]int
	results []kernels.Result
}

func (r *refPredictor) Predict(_ context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	res, _, err := r.pipe.Classify(seq)
	if err != nil {
		return kernels.Result{}, infer.Timing{}, err
	}
	r.windows = append(r.windows, slices.Clone(seq))
	r.results = append(r.results, res)
	return res, infer.Timing{}, nil
}

func (r *refPredictor) PredictStored(context.Context, int64) (kernels.Result, infer.Timing, error) {
	return kernels.Result{}, infer.Timing{}, infer.ErrNoStoredData
}

func (r *refPredictor) SeqLen() int { return r.pipe.SeqLen() }

func newPipeline(m *lstm.Model) (*kernels.Pipeline, error) {
	return kernels.New(m, kernels.Config{SeqLen: seqLen})
}

// buildReference computes the expected verdict and simulated timing of
// every input of w, spread over the client goroutines.
func buildReference(m *lstm.Model, w *workload) (*reference, error) {
	pipe, err := newPipeline(m)
	if err != nil {
		return nil, err
	}
	_, _, _, perItem := pipe.ItemCycles()
	ref := &reference{
		cycles:  perItem * seqLen,
		compute: pipe.Device().Duration(perItem * seqLen),
	}
	if ref.hostXfer, ref.p2pXfer, err = transferTimes(); err != nil {
		return nil, err
	}

	ref.results = make([]kernels.Result, len(w.windows))
	ref.passes = make([]*pass, len(w.streams))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = ref.fill(m, w, c)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("reference verdicts: %w", err)
	}
	ref.score(w)
	return ref, nil
}

// fill computes goroutine c's share: every clients-th window, and stream c.
func (ref *reference) fill(m *lstm.Model, w *workload, c int) error {
	pipe, err := newPipeline(m)
	if err != nil {
		return err
	}
	for i := c; i < len(w.windows); i += clients {
		res, cycles, err := pipe.Classify(w.windows[i])
		if err != nil {
			return err
		}
		if cycles != ref.cycles {
			return fmt.Errorf("window %d: %d cycles, deployment has %d", i, cycles, ref.cycles)
		}
		ref.results[i] = res
	}
	if c < len(w.streams) {
		rp := &refPredictor{pipe: pipe}
		p, err := replay(w.streams[c], rp, time.Time{}, nil)
		if err != nil {
			return err
		}
		p.windows, p.results = rp.windows, rp.results
		ref.passes[c] = p
	}
	return nil
}

// transferTimes reads the simulated cost of moving one window to the FPGA
// on a fresh drive: host-staged (live windows) and P2P (stored scans).
func transferTimes() (host, p2p time.Duration, err error) {
	dev, err := csd.New(csd.Config{})
	if err != nil {
		return 0, 0, err
	}
	buf, err := dev.Alloc(seqLen*csd.ItemBytes, 1)
	if err != nil {
		return 0, 0, err
	}
	if host, err = dev.WriteBuffer(buf, make([]byte, seqLen*csd.ItemBytes)); err != nil {
		return 0, 0, err
	}
	if _, err = dev.StoreSequence(0, make([]int, seqLen)); err != nil {
		return 0, 0, err
	}
	if p2p, err = dev.TransferP2P(0, buf); err != nil {
		return 0, 0, err
	}
	return host, p2p, nil
}

// score computes recall and false-positive rate of the reference verdicts.
func (ref *reference) score(w *workload) {
	var tp, fn, fp, tn int
	tally := func(truth, flagged bool) {
		switch {
		case truth && flagged:
			tp++
		case truth:
			fn++
		case flagged:
			fp++
		default:
			tn++
		}
	}
	if len(w.streams) > 0 {
		for s, st := range w.streams {
			for _, p := range st.procs {
				tally(p.truth, slices.Contains(ref.passes[s].blocks, p.pid))
			}
		}
	} else {
		for i, res := range ref.results {
			tally(w.truth[i], res.Ransomware)
		}
	}
	ref.recall = ratio(tp, tp+fn)
	ref.fpr = ratio(fp, fp+tn)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// verify compares one served answer with the reference bit for bit, and its
// simulated timing with the deployment's transfer and per-item cycles.
func (ref *reference) verify(got kernels.Result, tm infer.Timing, want kernels.Result, stored bool) error {
	if err := sameVerdict(got, want); err != nil {
		return err
	}
	xfer := ref.hostXfer
	if stored {
		xfer = ref.p2pXfer
	}
	if tm.Compute != ref.compute || tm.Transfer != xfer {
		return fmt.Errorf("simulated timing %+v, want transfer %v compute %v", tm, xfer, ref.compute)
	}
	return nil
}

// replay feeds one stream through per-process detection on pred, with the
// detect.Mux defaults (stride 25, AlertsToBlock 2). A block latches the
// Mux; the blocked process is quarantined (its remaining calls dropped) and
// the stream continues on a fresh Mux. A non-zero deadline ends the pass
// early; observe, when non-nil, receives every Observe call's start, its
// latency, and whether it classified a window.
func replay(st stream, pred infer.Inferencer, deadline time.Time, observe func(start time.Time, lat time.Duration, window bool)) (*pass, error) {
	out := &pass{}
	onEvict := func(int) { out.evictions++ }
	newMux := func() (*detect.Mux, error) {
		return detect.NewMux(pred, detect.MuxConfig{OnEvict: onEvict})
	}
	mux, err := newMux()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	blocked := make(map[int]bool)
	for _, c := range st.calls {
		if blocked[c.pid] {
			continue
		}
		start := time.Now()
		if !deadline.IsZero() && !start.Before(deadline) {
			out.partial = true
			break
		}
		ev, err := mux.Observe(ctx, c.pid, c.call)
		if err != nil {
			return out, fmt.Errorf("observe pid %d call %d: %w", c.pid, out.calls, err)
		}
		out.calls++
		if observe != nil {
			observe(start, time.Since(start), ev != nil)
		}
		if ev != nil && ev.Action == detect.ActionBlock {
			blocked[c.pid] = true
			out.blocks = append(out.blocks, c.pid)
			if mux, err = newMux(); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// size describes the reference: windows classified and, for stream-detect,
// calls and windows per stream pass.
func (ref *reference) size() map[string]any {
	out := map[string]any{"windows": len(ref.results)}
	for s, p := range ref.passes {
		out[fmt.Sprintf("stream%d", s)] = map[string]int{
			"calls": p.calls, "windows": len(p.windows), "blocks": len(p.blocks), "evictions": p.evictions,
		}
	}
	return out
}

// sameVerdict compares two classifications bit for bit.
func sameVerdict(got, want kernels.Result) error {
	if got.Ransomware != want.Ransomware ||
		math.Float64bits(got.Probability) != math.Float64bits(want.Probability) ||
		math.Float64bits(got.Logit) != math.Float64bits(want.Logit) {
		return fmt.Errorf("verdict %+v, reference %+v", got, want)
	}
	return nil
}
