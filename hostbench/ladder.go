package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/serve"
)

const (
	// ladderWindows of the workload's own inputs climb the ladder.
	ladderWindows = 384
	// allocWindows of them are replayed per rung to count allocations.
	allocWindows = 64
	// microOps fixed-point primitives are timed per window.
	microOps = 256
)

// step is one rung of the ladder: call sends input i through one layer's
// entry point and reports how many operations that was.
type step struct {
	name string
	call func(i int) (ops int, err error)
}

// spans holds every step's nanoseconds per operation, one entry per
// window, in the order the ladder climbed.
type spans map[string][]float64

// climb sends each window up the whole ladder before the next, timing
// every call as its own span. Host speed on a shared machine drifts by tens
// of percent over tens of milliseconds; a window's rungs run within a few
// milliseconds of each other, so per-window differences between rungs
// cancel the drift. The groups run in a fresh seeded order per window, so
// no rung always runs first, on a cold cache; the steps of a group run in
// their given order.
func climb(groups [][]step, n int) (spans, error) {
	out := make(spans)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		for _, g := range rng.Perm(len(groups)) {
			for _, s := range groups[g] {
				start := time.Now()
				ops, err := s.call(i)
				d := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("ladder %s: %w", s.name, err)
				}
				out[s.name] = append(out[s.name], float64(d)/float64(ops))
			}
		}
	}
	return out, nil
}

// ns is a step's median span.
func (sp spans) ns(name string) float64 {
	return median(sp[name])
}

// self is the median over windows of a step's span minus the spans of the
// steps it calls, for the same window.
func (sp spans) self(name string, callees ...string) float64 {
	d := slices.Clone(sp[name])
	for i := range d {
		for _, c := range callees {
			d[i] -= sp[c][i]
		}
	}
	return median(d)
}

// allocs counts a step's heap allocations and bytes per operation over the
// first allocWindows inputs, one step at a time.
func allocs(s step) (objects, bytes float64, err error) {
	var before, after runtime.MemStats
	ops := 0
	runtime.ReadMemStats(&before)
	for i := 0; i < allocWindows; i++ {
		n, err := s.call(i)
		if err != nil {
			return 0, 0, fmt.Errorf("ladder %s: %w", s.name, err)
		}
		ops += n
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(ops), nil
}

// spanCost is the mean cost of recording one span: two clock reads and a
// store, the whole of what tracing adds to a rung call.
func spanCost() float64 {
	const n = 100_000
	d := make([]time.Duration, n)
	start := time.Now()
	for i := range d {
		s := time.Now()
		d[i] = time.Since(s)
	}
	return float64(time.Since(start)) / n
}

// rungInputs are the workload's own windows as the ladder replays them.
type rungInputs struct {
	windows [][]int
	want    []kernels.Result
	ctxs    []context.Context // fleet placement context per window
	stored  bool              // the workload classifies stored sequences
}

func ladderInputs(w *workload, ref *reference) rungInputs {
	in := rungInputs{stored: w.name == wlScan}
	if len(ref.passes) > 0 {
		for _, p := range ref.passes {
			in.windows = append(in.windows, p.windows...)
			in.want = append(in.want, p.results...)
		}
	} else {
		in.windows, in.want = w.windows, ref.results
	}
	n := min(ladderWindows, len(in.windows))
	in.windows, in.want = in.windows[:n], in.want[:n]
	for i := range in.windows {
		ctx := context.Background()
		switch {
		case w.ctxs != nil:
			ctx = w.ctxs[i]
		case !in.stored:
			// Detected processes are tenants, as detect.Mux tags them.
			ctx = infer.WithTenant(ctx, fmt.Sprintf("pid-%d", i))
		}
		in.ctxs = append(in.ctxs, ctx)
	}
	return in
}

// classifyFunc sends input i down one layer.
type classifyFunc func(i int) (kernels.Result, infer.Timing, error)

// checked turns f into a step call that verifies every answer against the
// reference.
func (in rungInputs) checked(ref *reference, stored bool, f classifyFunc) func(int) (int, error) {
	return func(i int) (int, error) {
		res, tm, err := f(i)
		if err != nil {
			return 1, err
		}
		if err := ref.verify(res, tm, in.want[i], stored); err != nil {
			return 1, fmt.Errorf("window %d: %w", i, err)
		}
		return 1, nil
	}
}

var sink fixed.Value

// traced reads the per-layer counters the measured run left on the fleet,
// closes it, then climbs the serialized ladder of layer entry points on
// the workload's inputs.
func traced(m *lstm.Model, w *workload, ref *reference, b *bench, t *tally, rt runtimeDelta) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Counters of the measured run; live-open's profiler saw it under load.
	fleetCounters(b, put)
	loadProfiled := b.wire != nil
	if loadProfiled {
		stageNS(b.wire.profiler.Snapshot().Stages, put)
	}
	b.close()
	windows := float64(max(t.windows(), 1))
	put("runtime.alloc_bytes_per_window", float64(rt.allocBytes)/windows, "B")
	put("runtime.gc_per_kwindow", float64(rt.gcCycles)*1000/windows, "count")
	put("runtime.gc_pause_p99_ms", float64(rt.pauseP99)/1e6, "ms")
	put("gen.lag_p99_ms", float64(quantile(sorted(t.lag), 0.99))/1e6, "ms")
	simN := float64(max(t.simN, 1))
	put("sim_item_us", float64(t.simComp)/simN/seqLen/1e3, "sim_us")
	put("sim_window_us", float64(t.simSum)/simN/1e3, "sim_us")
	put("recall", ref.recall, "ratio")
	put("fpr", ref.fpr, "ratio")
	put("csd.sim_transfer_us", float64(ref.hostXfer)/1e3, "sim_us")
	put("csd.sim_p2p_us", float64(ref.p2pXfer)/1e3, "sim_us")
	put("kernels.sim_cycles_per_window", float64(ref.cycles), "cycles")

	l, err := newLadder(m, w, ref)
	if err != nil {
		return nil, err
	}
	defer l.close()
	groups := l.steps()
	sp, err := climb(groups, len(l.in.windows))
	if err != nil {
		return nil, err
	}
	a := make(map[string][2]float64)
	for _, s := range slices.Concat(groups...) {
		if !slices.Contains([]string{"kernels", "csd.encode", "core.live", "serve"}, s.name) {
			continue
		}
		objects, bytes, err := allocs(s)
		if err != nil {
			return nil, err
		}
		a[s.name] = [2]float64{objects, bytes}
	}

	put("fixed.dot_ns", sp.ns("fixed.dot"), "ns")
	put("activation.sigmoid_ns", sp.ns("activation.sigmoid"), "ns")

	put("kernels.classify_ns", sp.ns("kernels"), "ns")
	put("kernels.classify_allocs", a["kernels"][0], "allocs")
	put("kernels.classify_bytes", a["kernels"][1], "B")

	put("csd.encode_ns", sp.ns("csd.encode"), "ns")
	put("csd.encode_allocs", a["csd.encode"][0], "allocs")
	put("csd.write_buffer_ns", sp.ns("csd.write_buffer"), "ns")
	put("csd.transfer_p2p_ns", sp.ns("csd.transfer_p2p"), "ns")

	put("core.predict_ns", sp.ns("core.live"), "ns")
	put("core.predict_allocs", a["core.live"][0], "allocs")
	put("core.self_ns", sp.self("core.live", "kernels", "csd.encode", "csd.write_buffer"), "ns")
	put("core.predict_stored_ns", sp.ns("core.stored"), "ns")
	put("core.stored_self_ns", sp.self("core.stored", "kernels", "csd.transfer_p2p"), "ns")
	coreRung := "core.live"
	if l.in.stored {
		coreRung = "core.stored"
	}

	put("serve.predict_ns", sp.ns("serve"), "ns")
	put("serve.predict_allocs", a["serve"][0], "allocs")
	put("serve.self_ns", sp.self("serve", coreRung), "ns")

	fleetNS := sp.ns("fleet")
	put("fleet.predict_ns", fleetNS, "ns")
	put("fleet.self_ns", sp.self("fleet", "serve"), "ns")

	put("detect.observe_ns", sp.ns("detect.fill"), "ns")
	put("detect.window_self_ns", sp.self("detect", "fleet"), "ns")
	if len(ref.passes) > 0 {
		var calls, wins, blocks, evictions int
		for _, p := range ref.passes {
			calls += p.calls
			wins += len(p.windows)
			blocks += len(p.blocks)
			evictions += p.evictions
		}
		put("detect.windows_per_kcall", float64(wins)*1000/float64(calls), "windows/kcall")
		put("detect.blocks", float64(blocks), "count")
		put("detect.evictions", float64(evictions), "count")
	} else {
		put("detect.windows_per_kcall", 1000/float64(seqLen), "windows/kcall")
		put("detect.blocks", float64(l.blocks), "count")
		put("detect.evictions", float64(l.evictions), "count")
	}

	// Observability: the fleet rung again, paired window for window with
	// the same call on a fleet wired like live-open's. The wired fleet's
	// profiler samples process-wide, so it lives only for this pass.
	wired, err := ladderFleet(m, true, l.in)
	if err != nil {
		return nil, err
	}
	bare := step{"fleet", l.in.checked(ref, l.in.stored, fleetCall(l.bare, l.in))}
	obs := step{"obs", l.in.checked(ref, l.in.stored, fleetCall(wired, l.in))}
	osp, err := climb([][]step{{bare}, {obs}}, len(l.in.windows))
	var bareAllocs, wiredAllocs float64
	if err == nil {
		bareAllocs, _, err = allocs(bare)
	}
	if err == nil {
		wiredAllocs, _, err = allocs(obs)
	}
	if err == nil && !loadProfiled {
		stageNS(wired.wire.profiler.Snapshot().Stages, put)
	}
	wired.close()
	if err != nil {
		return nil, err
	}
	put("obs.overhead_ns", osp.self("obs", "fleet"), "ns")
	put("obs.overhead_allocs", wiredAllocs-bareAllocs, "allocs")

	// Tracing: every rung call above paid one span.
	put("trace.overhead_pct", 100*spanCost()/fleetNS, "%")
	return out, nil
}

// ladder holds one instance of every layer, each deployed from the pinned
// model on its own simulated device.
type ladder struct {
	ref *reference
	in  rungInputs

	arith fixed.Arith
	fact  activation.Fixed
	row   []fixed.Value // one 40-wide gate row: Wx then Wh
	vec   []fixed.Value // an embedding and a hidden-width operand

	pipe    *kernels.Pipeline
	encoded []byte
	dev     *csd.SmartSSD
	buf     *csd.Buffer
	eng     *core.Engine // core rungs
	srv     *serve.Server
	bare    *bench
	mux     *detect.Mux

	// pid is the process the detect rung is replaying; blocks and
	// evictions count what the rung's Mux did.
	pid               int
	blocks, evictions int
}

func newLadder(m *lstm.Model, w *workload, ref *reference) (*ladder, error) {
	l := &ladder{ref: ref, in: ladderInputs(w, ref)}
	var err error
	if l.arith, err = fixed.New(fixed.DefaultScale); err != nil {
		return nil, err
	}
	l.fact = activation.NewFixed(l.arith)
	l.row = append(l.arith.QuantizeSlice(m.Gates[0].Wx.Row(0)), l.arith.QuantizeSlice(m.Gates[0].Wh.Row(0))...)
	l.vec = append(l.arith.QuantizeSlice(m.Embedding.Row(l.in.windows[0][0])), l.arith.QuantizeSlice(m.Gates[1].Wh.Row(0))...)
	if l.pipe, err = newPipeline(m); err != nil {
		return nil, err
	}
	if l.dev, err = csd.New(csd.Config{}); err != nil {
		return nil, err
	}
	if l.buf, err = l.dev.Alloc(seqLen*csd.ItemBytes, 1); err != nil {
		return nil, err
	}
	if err := storeAll(l.dev, l.in.windows); err != nil {
		return nil, err
	}
	if l.eng, err = deployStored(m, l.in.windows); err != nil {
		return nil, err
	}
	// The server owns an engine of its own: an engine is single-stream.
	srvEng, err := deployStored(m, l.in.windows)
	if err != nil {
		return nil, err
	}
	if l.srv, err = serve.New([]infer.Inferencer{srvEng}, serve.Config{}); err != nil {
		return nil, err
	}
	if l.bare, err = ladderFleet(m, false, l.in); err != nil {
		l.srv.Close()
		return nil, err
	}
	if l.mux, err = l.newMux(); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *ladder) close() {
	l.srv.Close()
	l.bare.close()
}

func (l *ladder) newMux() (*detect.Mux, error) {
	return detect.NewMux(l.bare.fl, detect.MuxConfig{OnEvict: func(int) { l.evictions++ }})
}

// deployStored deploys a bare engine on a fresh drive holding seqs.
func deployStored(m *lstm.Model, seqs [][]int) (*core.Engine, error) {
	dev, err := csd.New(csd.Config{})
	if err != nil {
		return nil, err
	}
	eng, err := core.Deploy(dev, m, core.DeployConfig{SeqLen: seqLen})
	if err != nil {
		return nil, err
	}
	return eng, storeAll(dev, seqs)
}

// steps lists the rungs bottom-up: fixed-point primitives, the kernel
// pipeline, the drive's encoding and transfers, the engine, the scheduler,
// the fleet, and the detector. Steps that depend on each other share a
// group: the drive's write and P2P transfer move the window just encoded,
// and the detector's classifying call ends the process its fill began.
func (l *ladder) steps() [][]step {
	in, ref := l.in, l.ref
	ctx := context.Background()
	micro := func(f func(k int)) func(int) (int, error) {
		return func(int) (int, error) {
			for k := 0; k < microOps; k++ {
				f(k)
			}
			return microOps, nil
		}
	}
	return [][]step{
		{{"fixed.dot", micro(func(int) { sink += l.arith.Dot(l.row, l.vec) })}},
		{{"activation.sigmoid", micro(func(k int) { sink += l.fact.Sigmoid(fixed.Value((k - microOps/2) * 62_500)) })}},
		{{"kernels", func(i int) (int, error) {
			res, cycles, err := l.pipe.Classify(in.windows[i])
			switch {
			case err != nil:
				return 1, err
			case cycles != ref.cycles:
				return 1, fmt.Errorf("window %d: %d cycles, deployment has %d", i, cycles, ref.cycles)
			}
			return 1, sameVerdict(res, in.want[i])
		}}},
		{
			{"csd.encode", func(i int) (_ int, err error) {
				if l.encoded, err = csd.EncodeItems(in.windows[i]); err != nil {
					return 1, err
				}
				_, err = csd.DecodeItems(l.encoded)
				return 1, err
			}},
			{"csd.write_buffer", func(int) (int, error) {
				_, err := l.dev.WriteBuffer(l.buf, l.encoded)
				return 1, err
			}},
			{"csd.transfer_p2p", func(i int) (int, error) {
				_, err := l.dev.TransferP2P(storedOffset(i), l.buf)
				return 1, err
			}},
		},
		{{"core.live", in.checked(ref, false, func(i int) (kernels.Result, infer.Timing, error) {
			return l.eng.Predict(ctx, in.windows[i])
		})}},
		{{"core.stored", in.checked(ref, true, func(i int) (kernels.Result, infer.Timing, error) {
			return l.eng.PredictStored(ctx, storedOffset(i))
		})}},
		{{"serve", in.checked(ref, in.stored, func(i int) (kernels.Result, infer.Timing, error) {
			if in.stored {
				return l.srv.PredictStored(ctx, storedOffset(i))
			}
			return l.srv.Predict(ctx, in.windows[i])
		})}},
		{{"fleet", in.checked(ref, in.stored, fleetCall(l.bare, in))}},
		{{"detect.fill", l.detectFill}, {"detect", l.detectWindow}},
	}
}

// detectFill starts window i as a fresh process of the rung's Mux: its
// first seqLen-1 calls complete no window.
func (l *ladder) detectFill(i int) (int, error) {
	l.pid++
	ctx := context.Background()
	for _, c := range l.in.windows[i][:seqLen-1] {
		if _, err := l.mux.Observe(ctx, l.pid, c); err != nil {
			return seqLen - 1, err
		}
	}
	return seqLen - 1, nil
}

// detectWindow sends window i's last call, which classifies the window.
func (l *ladder) detectWindow(i int) (int, error) {
	ev, err := l.mux.Observe(context.Background(), l.pid, l.in.windows[i][seqLen-1])
	if err != nil {
		return 1, err
	}
	if ev == nil || ev.Probability != l.in.want[i].Probability {
		return 1, fmt.Errorf("window %d: event %+v, reference %+v", i, ev, l.in.want[i])
	}
	if ev.Action == detect.ActionBlock {
		l.blocks++
		l.mux, err = l.newMux()
	}
	return 1, err
}

func storeAll(dev *csd.SmartSSD, seqs [][]int) error {
	for i, s := range seqs {
		if _, err := dev.StoreSequence(storedOffset(i), s); err != nil {
			return err
		}
	}
	return nil
}

// ladderFleet builds a fleet for the ladder, provisioned with the ladder's
// windows when the workload scans stored sequences.
func ladderFleet(m *lstm.Model, wired bool, in rungInputs) (*bench, error) {
	b, err := buildFleet(m, wired, nil)
	if err != nil {
		return nil, err
	}
	if in.stored {
		if err := provision(b.fl, in.windows); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func fleetCall(b *bench, in rungInputs) classifyFunc {
	return func(i int) (kernels.Result, infer.Timing, error) {
		if in.stored {
			return b.fl.PredictStored(in.ctxs[i], storedOffset(i))
		}
		return b.fl.Predict(in.ctxs[i], in.windows[i])
	}
}

// fleetCounters reads the measured run's serving counters off its fleet.
func fleetCounters(b *bench, put func(string, float64, string)) {
	var jobs, dispatches int64
	var busy []float64
	for _, s := range b.fl.Stats() {
		jobs += s.Serve.Jobs
		dispatches += s.Serve.Dispatches
		busy = append(busy, float64(s.Serve.BusyTime))
	}
	var sum float64
	for _, x := range busy {
		sum += x
	}
	put("fleet.busy_imbalance", slices.Max(busy)/(sum/float64(len(busy))), "ratio")
	put("serve.batch_size_mean", float64(jobs)/math.Max(float64(dispatches), 1), "jobs")
	wait := b.fl.QueueWait()
	put("serve.queue_wait_p50_us", wait.P50/1e3, "us")
	put("serve.queue_wait_p99_us", wait.P99/1e3, "us")
	counts := map[string]float64{}
	for _, m := range b.reg.Snapshot() {
		counts[m.Name] += float64(m.Value)
	}
	put("fleet.spillover", counts["fleet_spillover_total"], "count")
	put("fleet.retries", counts["fleet_retries_total"], "count")
	put("fleet.rejected", counts["fleet_rejected_total"], "count")
}

// stageNS reports the profiler's mean host cost per request stage.
func stageNS(stages []prof.StageSummary, put func(string, float64, string)) {
	mean := map[string]float64{}
	for _, s := range stages {
		mean[s.Stage] = s.MeanNS
	}
	for _, s := range []string{"queue", "encode", "transfer", "compute", "observe"} {
		put("prof.stage_ns."+s, mean[s], "ns")
	}
}
