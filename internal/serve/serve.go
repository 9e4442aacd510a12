// Package serve is the node-level request scheduler: the layer that turns a
// rack of single-stream CSD engines into a concurrent inference service.
//
// The paper's scalability argument (§II) is that SmartSSDs scale by
// "allowing for the installation of multiple devices within a single node";
// this package supplies the serving discipline that argument presumes. Each
// device's engine owns one hardware pipeline and is not safe for concurrent
// use, so the server gives every device a single worker goroutine fed by a
// bounded queue. Incoming requests are placed on the ready device with the
// least simulated outstanding work (accumulated busy time plus an estimate
// of its queued backlog), a policy that beats round-robin when request
// costs or device loads are uneven. A full queue pushes back — immediately
// with ErrQueueFull, or by blocking until space frees, per Config.Block.
// Workers coalesce adjacent stored-scan requests into one dispatch, the
// background scanning pattern the paper's introduction motivates. Context
// cancellation is honored end-to-end: a canceled request still in a queue
// is abandoned before it ever touches the device.
//
// Device identity, lifecycle, and busy accounting live in the shared
// internal/device registry, not here: the server consumes registry handles
// (its own, for standalone use, or pre-registered ones handed down by the
// fleet layer), labels its telemetry and trace tracks with registry IDs,
// and respects lifecycle state in placement — a draining device finishes
// its queue but attracts no new work.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// ErrQueueFull is returned (when Config.Block is false) if the chosen
// device's queue has no room — the service is saturated and the caller
// should shed or retry.
var ErrQueueFull = errors.New("serve: device queue full")

// ErrClosed is returned for requests submitted after Close, and for
// requests still queued when Close ran.
var ErrClosed = errors.New("serve: server closed")

// ErrNoReadyDevice is returned when no device is in the Ready lifecycle
// state — every drive is provisioning, draining, or failed.
var ErrNoReadyDevice = errors.New("serve: no ready device")

// Config controls the scheduler.
type Config struct {
	// QueueDepth bounds each device's request queue; 0 defaults to 64.
	QueueDepth int
	// Block makes a full queue block the caller (until space, cancellation,
	// or close) instead of failing fast with ErrQueueFull.
	Block bool
	// BatchMax bounds how many adjacent queued stored-scan requests a
	// device worker coalesces into one dispatch; 0 defaults to 8, 1
	// disables batching.
	BatchMax int
	// Devices is the shared device registry owning identity, lifecycle,
	// and busy accounting for the engines. Nil builds a private registry
	// (against Config.Telemetry and Config.Events), preserving standalone
	// use; fleet-scale callers pass their own so every layer sees the same
	// device IDs.
	Devices *device.Registry
	// Handles pairs pre-registered devices with engines, index for index
	// (len must equal the engine count). Nil makes the server register one
	// device per engine in Devices and mark it Ready; non-nil leaves
	// lifecycle entirely to the caller — the fleet layer drains, fails,
	// and rejoins devices while the server keeps scheduling around them.
	Handles []*device.Device
	// Telemetry, when non-nil, receives the per-device serving metrics:
	// serve_jobs_total, serve_dispatches_total, serve_errors_total,
	// serve_canceled_total, serve_queue_full_total, the
	// serve_queue_wait_seconds wall-time histogram, and the
	// serve_batch_size histogram — all labeled device="<registry ID>".
	// Busy-time and backlog instruments live with the registry
	// (device_busy_nanoseconds_total, device_pending_requests). With a nil
	// registry the same instruments still back Stats(), just unexported.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, retains the completed record (telemetry.Span)
	// of every request the server created one for: requests that did not
	// already carry a record in their context (e.g. direct Predict calls
	// outside a detector).
	Spans *telemetry.SpanLog
	// Trace, when non-nil, records each request's queue residency on the
	// scheduler's per-device tracks (named by registry ID) and assigns the
	// request a trace job ID, stored on its record as Span.ID — the
	// correlation key tying the queue event to the transfer and kernel
	// events the device emits and the events logged for the same request.
	Trace *trace.Tracer
	// Events, when non-nil, receives the scheduler's structured events:
	// per-request completions (debug: request.done, with device and
	// queue-wait attribution), backpressure rejections (warn: queue.full),
	// device-side failures (warn: request.error), and lifecycle events
	// (info: server.start / server.close). Device-attributed events carry
	// the registry ID.
	Events *eventlog.Logger
	// Prof, when non-nil, attributes each request's host wall-clock to
	// pipeline stages (queue, encode, transfer, compute, observe, ...) on
	// the records the server creates, and records them on completion.
	// Requests that arrive with a caller's record (e.g. from a detector)
	// are filled in but recorded by their creator.
	Prof *prof.Profiler
}

func (c *Config) defaults() error {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("serve: QueueDepth must be positive, got %d", c.QueueDepth)
	}
	if c.BatchMax == 0 {
		c.BatchMax = 8
	}
	if c.BatchMax < 0 {
		return fmt.Errorf("serve: BatchMax must be positive, got %d", c.BatchMax)
	}
	return nil
}

// response carries a completed classification back to its caller.
type response struct {
	res    kernels.Result
	timing infer.Timing
	err    error
}

// claim states for request.claim.
const (
	claimNone   int32 = iota // unresolved
	claimWorker              // worker will complete done (result or error)
	claimCaller              // caller reclaimed at close; never executed
)

// request is one queued classification. done is buffered (capacity 1) so a
// worker can always complete a request whose caller has already abandoned
// it.
type request struct {
	ctx    context.Context
	seq    []int // live window; nil for stored requests
	off    int64 // SSD offset; meaningful when stored
	stored bool
	done   chan response
	// enqueuedAt stamps submission, so the dispatching worker can record
	// the request's queue wait (wall time: queueing happens in the real
	// host scheduler, unlike the simulated device time in Timing).
	enqueuedAt time.Time
	// claim resolves the close-time race between the caller and the
	// worker: 0 = unresolved, 1 = worker owns it (will deliver done),
	// 2 = caller reclaimed it (ErrClosed, eligible for re-placement
	// upstream). Whoever wins the CAS also decrements the device's
	// pending count. Without it, a caller observing quit while its
	// request executes would abandon work the worker still completes —
	// and a fleet-level retry would then duplicate the window.
	claim atomic.Int32
	// rec is the request's record: the caller's when the context carries
	// one, else one the server created for its own sinks (own). Nil when
	// neither observes the request.
	rec *telemetry.Span
	// own marks a server-created record, flushed to Config.Spans and
	// Config.Prof on completion.
	own bool
}

// slot is one engine plus its serving state. Identity, lifecycle, and
// busy/backlog accounting live on the registry handle; the scalar serving
// counters live directly in telemetry instruments (created against
// Config.Telemetry or detached when telemetry is off), so Stats() and
// /metrics read the same source of truth.
type slot struct {
	h     *device.Device
	inf   infer.Inferencer
	queue chan *request

	jobs       *telemetry.Counter // requests executed successfully
	dispatches *telemetry.Counter // worker wake-ups (batches count once)
	errors     *telemetry.Counter // failed executions (cancellations excluded)
	canceled   *telemetry.Counter // requests abandoned before touching the device
	queueFull  *telemetry.Counter // ErrQueueFull rejections
	queueWait  *telemetry.Histogram
	batchSize  *telemetry.Histogram
}

// Server schedules classification requests over a set of single-stream
// inference engines. It implements infer.Inferencer, so a detector, mux, or
// hot-swap wrapper can sit directly on top of a whole rack of devices. Its
// methods are safe for concurrent use.
type Server struct {
	cfg   Config
	slots []*slot

	quit   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

var _ infer.Inferencer = (*Server)(nil)

// New starts a server over the given engines — one worker goroutine per
// engine. Engines must all use the same window length. The server takes
// ownership of serializing access to them; callers must not use the engines
// directly while the server is running.
//
// Device identity comes from cfg.Handles when supplied (pre-registered by
// the fleet layer, lifecycle managed by the caller); otherwise the server
// registers one device per engine in cfg.Devices (or a private registry)
// and marks it Ready.
func New(engines []infer.Inferencer, cfg Config) (*Server, error) {
	if len(engines) == 0 {
		return nil, errors.New("serve: no engines")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("serve: engine %d is nil", i)
		}
		if e.SeqLen() != engines[0].SeqLen() {
			return nil, fmt.Errorf("serve: engine %d window %d differs from engine 0 window %d",
				i, e.SeqLen(), engines[0].SeqLen())
		}
	}
	if cfg.Handles != nil && len(cfg.Handles) != len(engines) {
		return nil, fmt.Errorf("serve: %d device handles for %d engines", len(cfg.Handles), len(engines))
	}
	handles := cfg.Handles
	if handles == nil {
		if cfg.Devices == nil {
			cfg.Devices = device.NewRegistry(device.Config{
				Telemetry: cfg.Telemetry, Events: cfg.Events,
			})
		}
		for range engines {
			d := cfg.Devices.Register()
			if err := d.SetReady("serve-start"); err != nil {
				return nil, err
			}
			handles = append(handles, d)
		}
	} else {
		for i, h := range handles {
			if h == nil {
				return nil, fmt.Errorf("serve: device handle %d is nil", i)
			}
		}
	}
	s := &Server{cfg: cfg, quit: make(chan struct{})}
	reg := cfg.Telemetry
	for i, e := range engines {
		h := handles[i]
		dl := telemetry.L("device", string(h.ID()))
		d := &slot{
			h:     h,
			inf:   e,
			queue: make(chan *request, cfg.QueueDepth),
			jobs: reg.Counter("serve_jobs_total",
				"Requests executed successfully.", dl),
			dispatches: reg.Counter("serve_dispatches_total",
				"Worker wake-ups; a coalesced stored batch counts once.", dl),
			errors: reg.Counter("serve_errors_total",
				"Requests that failed on the device (cancellations excluded).", dl),
			canceled: reg.Counter("serve_canceled_total",
				"Requests abandoned by context cancellation before touching the device.", dl),
			queueFull: reg.Counter("serve_queue_full_total",
				"Requests rejected with ErrQueueFull.", dl),
			queueWait: reg.Histogram("serve_queue_wait_seconds",
				"Wall time between enqueue and worker dispatch.", telemetry.Buckets{}, dl),
			batchSize: reg.Histogram("serve_batch_size",
				"Stored-scan requests coalesced per dispatch.", telemetry.DefaultCountBuckets(), dl),
		}
		s.slots = append(s.slots, d)
		s.wg.Add(1)
		go s.run(d)
	}
	cfg.Events.Info(context.Background(), "serve", "server.start",
		eventlog.F("devices", len(engines)),
		eventlog.F("queue_depth", cfg.QueueDepth),
		eventlog.F("batch_max", cfg.BatchMax),
		eventlog.F("block", cfg.Block))
	return s, nil
}

// Devices returns the number of devices being served.
func (s *Server) Devices() int { return len(s.slots) }

// Closed reports whether Close has begun: new submits fail with ErrClosed
// and queued requests are being failed for re-placement.
func (s *Server) Closed() bool { return s.closed.Load() }

// Registry returns the device registry the server's engines are
// registered in.
func (s *Server) Registry() *device.Registry { return s.cfg.Devices }

// SeqLen returns the classification window length of the deployed engines.
func (s *Server) SeqLen() int { return s.slots[0].inf.SeqLen() }

// Predict classifies a live window, scheduling it on the ready device with
// the least simulated outstanding work. The window is copied, so the caller
// may reuse its slice (detectors slide theirs) as soon as Predict returns.
func (s *Server) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	req := &request{ctx: ctx, seq: append([]int(nil), seq...), done: make(chan response, 1)}
	return s.submit(ctx, req)
}

// PredictStored classifies the sequence at the given SSD byte offset on the
// least-loaded ready device. Offsets address the chosen device's SSD, so
// stored serving presumes scan targets are mirrored across the rack (as the
// background-scan replication deployment does). Adjacent queued stored
// requests are coalesced into one device dispatch.
func (s *Server) PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, infer.Timing, error) {
	req := &request{ctx: ctx, off: ssdOff, stored: true, done: make(chan response, 1)}
	return s.submit(ctx, req)
}

// pick returns the ready device with the least simulated outstanding work,
// or nil when every device is out of rotation (draining, failed, or still
// provisioning).
func (s *Server) pick() *slot {
	var best *slot
	var bestScore int64
	for _, d := range s.slots {
		if !d.h.IsReady() {
			continue
		}
		if sc := d.h.Score(); best == nil || sc < bestScore {
			best, bestScore = d, sc
		}
	}
	return best
}

func (s *Server) submit(ctx context.Context, req *request) (kernels.Result, infer.Timing, error) {
	if err := ctx.Err(); err != nil {
		return kernels.Result{}, infer.Timing{}, err
	}
	if s.closed.Load() {
		return kernels.Result{}, infer.Timing{}, ErrClosed
	}
	req.rec = telemetry.SpanFrom(ctx)
	if req.rec == nil && (s.cfg.Spans != nil || s.cfg.Prof != nil || s.cfg.Trace.Enabled()) {
		name := "predict"
		if req.stored {
			name = "predict-stored"
		}
		req.rec = &telemetry.Span{Name: name}
		req.own = true
		s.cfg.Prof.Open(req.rec)
		req.ctx = telemetry.WithSpan(ctx, req.rec)
	}
	if s.cfg.Trace.Enabled() {
		req.rec.ID = s.cfg.Trace.NewJob()
	}
	d := s.pick()
	if d == nil {
		return kernels.Result{}, infer.Timing{}, ErrNoReadyDevice
	}
	d.h.IncPending()
	req.enqueuedAt = time.Now()
	if s.cfg.Block {
		select {
		case d.queue <- req:
		case <-ctx.Done():
			d.h.DecPending()
			d.canceled.Inc()
			return kernels.Result{}, infer.Timing{}, ctx.Err()
		case <-s.quit:
			d.h.DecPending()
			return kernels.Result{}, infer.Timing{}, ErrClosed
		}
	} else {
		select {
		case d.queue <- req:
		default:
			d.h.DecPending()
			d.queueFull.Inc()
			s.cfg.Events.LogDevice(req.ctx, eventlog.LevelWarn, "serve", "queue.full",
				string(d.h.ID()),
				eventlog.F("queue_depth", s.cfg.QueueDepth))
			return kernels.Result{}, infer.Timing{}, ErrQueueFull
		}
	}
	select {
	case resp := <-req.done:
		return resp.res, resp.timing, resp.err
	case <-ctx.Done():
		// Abandon: the worker will observe the canceled ctx before
		// touching the device and complete the buffered done channel.
		return kernels.Result{}, infer.Timing{}, ctx.Err()
	case <-s.quit:
		if req.claim.CompareAndSwap(claimNone, claimCaller) {
			// Still queued and unclaimed: this request never touched the
			// device and never will — safe for the caller (or a fleet
			// layer) to re-place elsewhere.
			d.h.DecPending()
			return kernels.Result{}, infer.Timing{}, ErrClosed
		}
		// The worker owns it: the device is (or was) executing this
		// request, so the exactly-once answer is whatever the worker
		// delivers.
		resp := <-req.done
		return resp.res, resp.timing, resp.err
	}
}

// run is the device worker: the single goroutine with access to the engine.
func (s *Server) run(d *slot) {
	defer s.wg.Done()
	for {
		// Quit takes priority over further queued work: once Close has run,
		// remaining queued requests are failed with ErrClosed (so a fleet
		// layer can re-place them), not executed. Without this check the
		// blocking select below picks randomly when both are ready.
		select {
		case <-s.quit:
			s.failQueued(d)
			return
		default:
		}
		select {
		case <-s.quit:
			s.failQueued(d)
			return
		case req := <-d.queue:
			batch := s.collect(d, req)
			d.dispatches.Inc()
			d.batchSize.Observe(int64(len(batch)))
			for _, r := range batch {
				s.execute(d, r)
			}
		}
	}
}

// failQueued completes every still-queued request with ErrClosed.
func (s *Server) failQueued(d *slot) {
	for {
		select {
		case req := <-d.queue:
			if req.claim.CompareAndSwap(claimNone, claimWorker) {
				d.h.DecPending()
				req.done <- response{err: ErrClosed}
			}
		default:
			return
		}
	}
}

// collect coalesces adjacent queued stored-scan requests behind the first
// into one dispatch, stopping at a live request, an empty queue, or
// BatchMax.
func (s *Server) collect(d *slot, first *request) []*request {
	batch := []*request{first}
	if !first.stored || s.cfg.BatchMax <= 1 {
		return batch
	}
	for len(batch) < s.cfg.BatchMax {
		select {
		case next := <-d.queue:
			batch = append(batch, next)
			if !next.stored {
				return batch
			}
		default:
			return batch
		}
	}
	return batch
}

// execute runs one request on the device's engine and completes it. A
// request whose context is already done never touches the engine.
func (s *Server) execute(d *slot, req *request) {
	if !req.claim.CompareAndSwap(claimNone, claimWorker) {
		// The caller reclaimed this request at close; it was never
		// executed and the caller has already re-placed it.
		return
	}
	// Queue wait ends here, whether the request proceeds or was abandoned:
	// the scheduling delay was paid either way.
	wait := time.Since(req.enqueuedAt)
	rec := req.rec
	rec.Add(telemetry.StageQueue, wait)
	obs := rec.Begin(telemetry.StageObserve)
	d.queueWait.ObserveDuration(wait)
	if rec != nil {
		rec.Record(telemetry.PhaseQueue, wait)
		rec.Device = string(d.h.ID())
	}
	if tr := s.cfg.Trace; tr.Enabled() {
		// Pure wall-clock domain: the wait really elapsed on the host.
		name := "queue:predict"
		if req.stored {
			name = "queue:predict-stored"
		}
		start := tr.Elapsed() - wait
		if start < 0 {
			start = 0
		}
		tr.Emit(trace.Event{
			Track: trace.Track{Group: "serve", Name: string(d.h.ID())},
			Name:  name, Cat: trace.CatQueue,
			Start: start, Dur: wait, Job: rec.Job(),
		})
	}
	obs.End()
	if err := req.ctx.Err(); err != nil {
		d.h.DecPending()
		d.canceled.Inc()
		req.done <- response{err: err}
		return
	}
	// The engine fills in the record riding req.ctx: transfer and compute
	// phases, stage costs and the job its device events carry.
	var resp response
	if req.stored {
		resp.res, resp.timing, resp.err = d.inf.PredictStored(req.ctx, req.off)
	} else {
		resp.res, resp.timing, resp.err = d.inf.Predict(req.ctx, req.seq)
	}
	obs = rec.Begin(telemetry.StageObserve)
	d.h.AddBusy(int64(resp.timing.Total()))
	if resp.err == nil {
		d.jobs.Inc()
		if s.cfg.Events.Enabled(eventlog.LevelDebug) {
			s.cfg.Events.LogDevice(req.ctx, eventlog.LevelDebug, "serve", "request.done",
				string(d.h.ID()),
				eventlog.F("stored", req.stored),
				eventlog.F("queue_wait_ns", wait),
				eventlog.F("device_time_ns", resp.timing.Total()))
		}
	} else {
		d.errors.Inc()
		s.cfg.Events.LogDevice(req.ctx, eventlog.LevelWarn, "serve", "request.error",
			string(d.h.ID()),
			eventlog.F("stored", req.stored),
			eventlog.F("error", resp.err))
	}
	if req.own {
		s.cfg.Spans.Add(*rec)
	}
	obs.End()
	if req.own {
		s.cfg.Prof.Record(rec)
	}
	// Drop the backlog count before releasing the caller, so a caller
	// submitting its next request sees this device's true score.
	d.h.DecPending()
	req.done <- resp
}

// DeviceStats describes one device's serving activity. It is a read of the
// same telemetry instruments exposed at /metrics.
type DeviceStats struct {
	// ID is the device's stable registry identity.
	ID string
	// State is the device's lifecycle state name.
	State string
	// Jobs counts successfully executed requests.
	Jobs int64
	// Dispatches counts worker wake-ups; a coalesced stored batch counts
	// once, so Dispatches < Jobs indicates batching is occurring.
	Dispatches int64
	// BusyTime is the accumulated simulated device time.
	BusyTime time.Duration
	// Queued is the current backlog (queued or executing requests).
	Queued int64
	// Errors counts failed executions (cancellations excluded).
	Errors int64
	// Canceled counts requests abandoned before touching the device.
	Canceled int64
	// QueueFull counts ErrQueueFull rejections.
	QueueFull int64
	// QueueWaits counts dispatches with a recorded queue wait.
	QueueWaits int64
	// QueueWaitMean and QueueWaitP90 summarize the wall-time queue-wait
	// distribution (zero until the first dispatch).
	QueueWaitMean time.Duration
	QueueWaitP90  time.Duration
}

// Stats returns a snapshot of per-device serving activity, deterministically
// ordered by device ID so multi-device output diffs cleanly at any fleet
// size.
func (s *Server) Stats() []DeviceStats {
	out := make([]DeviceStats, len(s.slots))
	for i, d := range s.slots {
		wait := d.queueWait.Snapshot()
		out[i] = DeviceStats{
			ID:            string(d.h.ID()),
			State:         d.h.State().String(),
			Jobs:          d.jobs.Value(),
			Dispatches:    d.dispatches.Value(),
			BusyTime:      time.Duration(d.h.Busy()),
			Queued:        d.h.Pending(),
			Errors:        d.errors.Value(),
			Canceled:      d.canceled.Value(),
			QueueFull:     d.queueFull.Value(),
			QueueWaits:    wait.Count,
			QueueWaitMean: time.Duration(wait.Mean),
			QueueWaitP90:  time.Duration(wait.P90),
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close stops the workers, fails queued requests with ErrClosed, and waits
// for the workers to exit. Close is idempotent.
func (s *Server) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.quit)
		s.wg.Wait()
		// Sweep once more after the workers exit: a submit racing with
		// Close can commit its enqueue after the worker's drain.
		for _, d := range s.slots {
			s.failQueued(d)
		}
		var jobs int64
		for _, d := range s.slots {
			jobs += d.jobs.Value()
		}
		s.cfg.Events.Info(context.Background(), "serve", "server.close",
			eventlog.F("jobs_total", jobs))
		return nil
	}
	s.wg.Wait()
	return nil
}
