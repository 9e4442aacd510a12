// Package serve is the per-device request scheduler: the layer that turns
// one single-stream CSD engine into a concurrent inference service.
//
// A device's engine owns one hardware pipeline and is not safe for
// concurrent use, so the server gives it a single worker goroutine fed by a
// bounded queue. A full queue pushes back — immediately with ErrQueueFull,
// or by blocking until space frees, per Config.Block. Context cancellation
// is honored end-to-end: a canceled request still in the queue is abandoned
// before it ever touches the device.
//
// Serving more than one device is internal/fleet's job: the paper's
// scalability argument (§II) is "the installation of multiple devices
// within a single node", and the fleet places requests over one Server per
// device. Device identity, lifecycle, and busy accounting live in the
// shared internal/device registry: the server labels its telemetry and
// trace tracks with its device's registry ID and accepts new work only
// while that device is Ready — a draining device finishes its queue.
package serve

import (
	"context"
	"errors"
	"fmt"
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

// ErrQueueFull is returned (when Config.Block is false) if the device's
// queue has no room — the service is saturated and the caller should shed
// or retry.
var ErrQueueFull = errors.New("serve: device queue full")

// ErrClosed is returned for requests submitted after Close, and for
// requests still queued when Close ran.
var ErrClosed = errors.New("serve: server closed")

// ErrNoReadyDevice is returned when the device is not in the Ready
// lifecycle state — it is provisioning, draining, or failed. The fleet
// returns the same sentinel when no device in the rack is Ready.
var ErrNoReadyDevice = errors.New("serve: no ready device")

// Config controls the scheduler.
type Config struct {
	// QueueDepth bounds the device's request queue; 0 defaults to 64.
	QueueDepth int
	// Block makes a full queue block the caller (until space, cancellation,
	// or close) instead of failing fast with ErrQueueFull.
	Block bool
	// Device is the registry device the engine serves as, owning its
	// identity, lifecycle, and busy accounting. Nil registers one in a
	// private registry (against Config.Telemetry and Config.Events) and
	// marks it Ready, for standalone use; non-nil leaves lifecycle to the
	// caller — the fleet drains, fails, and rejoins its devices.
	Device *device.Device
	// Telemetry, when non-nil, receives the device's serving metrics:
	// serve_jobs_total, serve_dispatches_total, serve_errors_total,
	// serve_canceled_total, serve_queue_full_total and the
	// serve_queue_wait_seconds wall-time histogram, all labeled
	// device="<registry ID>".
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
	// scheduler's device track (named by registry ID) and assigns the
	// request a trace job ID, stored on its record as Span.ID — the
	// correlation key tying the queue event to the transfer and kernel
	// events the device emits and the events logged for the same request.
	Trace *trace.Tracer
	// Events, when non-nil, receives the scheduler's structured events:
	// per-request completions (debug: request.done, with device and
	// queue-wait attribution), backpressure rejections (warn: queue.full),
	// device-side failures (warn: request.error), and lifecycle events
	// (info: server.start / server.close). Every event carries the
	// registry ID.
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
	ctx context.Context
	// seq is the request's own copy of a live window, empty for stored
	// requests. Its buffer stays with the request through the pool, which
	// is safe because a request is recycled only after its caller holds the
	// response, and an abandoned request is never recycled.
	seq    []int
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

// Server schedules classification requests onto one single-stream
// inference engine. It implements infer.Inferencer, so a detector, mux, or
// hot-swap wrapper can sit directly on top of it. Its methods are safe for
// concurrent use.
//
// Identity, lifecycle, and busy/backlog accounting live on the registry
// device h; the scalar serving counters live directly in telemetry
// instruments (created against Config.Telemetry or detached when telemetry
// is off), so Stats() and /metrics read the same source of truth.
type Server struct {
	cfg   Config
	h     *device.Device
	inf   infer.Inferencer
	queue chan *request

	jobs       *telemetry.Counter // requests executed successfully
	dispatches *telemetry.Counter // requests the worker took off the queue
	errors     *telemetry.Counter // failed executions (cancellations excluded)
	canceled   *telemetry.Counter // requests abandoned before touching the device
	queueFull  *telemetry.Counter // ErrQueueFull rejections
	queueWait  *telemetry.Histogram

	quit   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	// reqs recycles requests, each with its done channel, once their
	// callers hold the response, so a served window leaves no request or
	// channel garbage behind.
	reqs sync.Pool
}

var _ infer.Inferencer = (*Server)(nil)

// New starts a server over exactly one engine, with one worker goroutine.
// The slice form is kept for callers that build engine lists; more than one
// device is served by internal/fleet, which runs one Server per device. The
// server takes ownership of serializing access to the engine; callers must
// not use it directly while the server is running.
//
// Device identity comes from cfg.Device when supplied (pre-registered by
// the fleet, lifecycle managed by the caller); otherwise the server
// registers a device in a private registry and marks it Ready.
func New(engines []infer.Inferencer, cfg Config) (*Server, error) {
	if len(engines) != 1 {
		return nil, fmt.Errorf("serve: %d engines, want exactly 1 (serve several devices with internal/fleet)", len(engines))
	}
	eng := engines[0]
	if eng == nil {
		return nil, errors.New("serve: nil engine")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	h := cfg.Device
	if h == nil {
		h = device.NewRegistry(device.Config{
			Telemetry: cfg.Telemetry, Events: cfg.Events,
		}).Register()
		if err := h.SetReady("serve-start"); err != nil {
			return nil, err
		}
	}
	reg := cfg.Telemetry
	dl := telemetry.L("device", string(h.ID()))
	s := &Server{
		cfg:   cfg,
		h:     h,
		inf:   eng,
		queue: make(chan *request, cfg.QueueDepth),
		jobs: reg.Counter("serve_jobs_total",
			"Requests executed successfully.", dl),
		dispatches: reg.Counter("serve_dispatches_total",
			"Requests the worker took off the queue.", dl),
		errors: reg.Counter("serve_errors_total",
			"Requests that failed on the device (cancellations excluded).", dl),
		canceled: reg.Counter("serve_canceled_total",
			"Requests abandoned by context cancellation before touching the device.", dl),
		queueFull: reg.Counter("serve_queue_full_total",
			"Requests rejected with ErrQueueFull.", dl),
		queueWait: reg.Histogram("serve_queue_wait_seconds",
			"Wall time between enqueue and worker dispatch.", telemetry.Buckets{}, dl),
		quit: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.run()
	cfg.Events.LogDevice(context.Background(), eventlog.LevelInfo, "serve", "server.start",
		string(h.ID()),
		eventlog.F("queue_depth", cfg.QueueDepth),
		eventlog.F("block", cfg.Block))
	return s, nil
}

// Closed reports whether Close has begun: new submits fail with ErrClosed
// and queued requests are being failed for re-placement.
func (s *Server) Closed() bool { return s.closed.Load() }

// SeqLen returns the classification window length of the deployed engine.
func (s *Server) SeqLen() int { return s.inf.SeqLen() }

// Predict classifies a live window on the device. The window is copied, so
// the caller may reuse its slice (detectors slide theirs) as soon as
// Predict returns.
func (s *Server) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	req := s.newRequest(ctx)
	req.seq = append(req.seq, seq...)
	return s.submit(ctx, req)
}

// PredictStored classifies the sequence at the given byte offset on the
// device's SSD.
func (s *Server) PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, infer.Timing, error) {
	req := s.newRequest(ctx)
	req.off, req.stored = ssdOff, true
	return s.submit(ctx, req)
}

// newRequest returns a request for ctx with an empty done channel, a
// recycled one when the pool holds one.
func (s *Server) newRequest(ctx context.Context) *request {
	req, _ := s.reqs.Get().(*request)
	if req == nil {
		req = &request{done: make(chan response, 1)}
	}
	req.ctx = ctx
	return req
}

// recycle clears req and returns it to the pool. Call it only once neither
// the queue nor the worker can reach req: after its response has been
// received, since delivering it is the worker's last touch.
func (s *Server) recycle(req *request) {
	req.ctx, req.seq, req.off, req.stored = nil, req.seq[:0], 0, false
	req.enqueuedAt, req.rec, req.own = time.Time{}, nil, false
	req.claim.Store(claimNone)
	s.reqs.Put(req)
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
	if !s.h.IsReady() {
		return kernels.Result{}, infer.Timing{}, ErrNoReadyDevice
	}
	s.h.IncPending()
	req.enqueuedAt = time.Now()
	if s.cfg.Block {
		select {
		case s.queue <- req:
		case <-ctx.Done():
			s.h.DecPending()
			s.canceled.Inc()
			return kernels.Result{}, infer.Timing{}, ctx.Err()
		case <-s.quit:
			s.h.DecPending()
			return kernels.Result{}, infer.Timing{}, ErrClosed
		}
	} else {
		select {
		case s.queue <- req:
		default:
			s.h.DecPending()
			s.queueFull.Inc()
			s.cfg.Events.LogDevice(req.ctx, eventlog.LevelWarn, "serve", "queue.full",
				string(s.h.ID()),
				eventlog.F("queue_depth", s.cfg.QueueDepth))
			return kernels.Result{}, infer.Timing{}, ErrQueueFull
		}
	}
	select {
	case resp := <-req.done:
		s.recycle(req)
		return resp.res, resp.timing, resp.err
	case <-ctx.Done():
		// Abandon: the worker will observe the canceled ctx before
		// touching the device and complete the buffered done channel.
		// The request is not recycled; the worker still holds it.
		return kernels.Result{}, infer.Timing{}, ctx.Err()
	case <-s.quit:
		if req.claim.CompareAndSwap(claimNone, claimCaller) {
			// Still queued and unclaimed: this request never touched the
			// device and never will — safe for the caller (or a fleet
			// layer) to re-place elsewhere. It stays queued until
			// failQueued drains it, so it is not recycled.
			s.h.DecPending()
			return kernels.Result{}, infer.Timing{}, ErrClosed
		}
		// The worker owns it: the device is (or was) executing this
		// request, so the exactly-once answer is whatever the worker
		// delivers.
		resp := <-req.done
		s.recycle(req)
		return resp.res, resp.timing, resp.err
	}
}

// run is the device worker: the single goroutine with access to the engine.
func (s *Server) run() {
	defer s.wg.Done()
	for {
		// Quit takes priority over further queued work: once Close has run,
		// remaining queued requests are failed with ErrClosed (so a fleet
		// layer can re-place them), not executed. Without this check the
		// blocking select below picks randomly when both are ready.
		select {
		case <-s.quit:
			s.failQueued()
			return
		default:
		}
		select {
		case <-s.quit:
			s.failQueued()
			return
		case req := <-s.queue:
			s.dispatches.Inc()
			s.execute(req)
		}
	}
}

// failQueued completes every still-queued request with ErrClosed.
func (s *Server) failQueued() {
	for {
		select {
		case req := <-s.queue:
			if req.claim.CompareAndSwap(claimNone, claimWorker) {
				s.h.DecPending()
				req.done <- response{err: ErrClosed}
			}
		default:
			return
		}
	}
}

// execute runs one request on the device's engine and completes it. A
// request whose context is already done never touches the engine.
func (s *Server) execute(req *request) {
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
	s.queueWait.ObserveDuration(wait)
	if rec != nil {
		rec.Record(telemetry.PhaseQueue, wait)
		rec.Device = string(s.h.ID())
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
			Track: trace.Track{Group: "serve", Name: string(s.h.ID())},
			Name:  name, Cat: trace.CatQueue,
			Start: start, Dur: wait, Job: rec.Job(),
		})
	}
	obs.End()
	if err := req.ctx.Err(); err != nil {
		s.h.DecPending()
		s.canceled.Inc()
		req.done <- response{err: err}
		return
	}
	// The engine fills in the record riding req.ctx: transfer and compute
	// phases, stage costs and the job its device events carry.
	var resp response
	if req.stored {
		resp.res, resp.timing, resp.err = s.inf.PredictStored(req.ctx, req.off)
	} else {
		resp.res, resp.timing, resp.err = s.inf.Predict(req.ctx, req.seq)
	}
	obs = rec.Begin(telemetry.StageObserve)
	s.h.AddBusy(int64(resp.timing.Total()))
	if resp.err == nil {
		s.jobs.Inc()
		if s.cfg.Events.Enabled(eventlog.LevelDebug) {
			s.cfg.Events.LogDevice(req.ctx, eventlog.LevelDebug, "serve", "request.done",
				string(s.h.ID()),
				eventlog.F("stored", req.stored),
				eventlog.F("queue_wait_ns", wait),
				eventlog.F("device_time_ns", resp.timing.Total()))
		}
	} else {
		s.errors.Inc()
		s.cfg.Events.LogDevice(req.ctx, eventlog.LevelWarn, "serve", "request.error",
			string(s.h.ID()),
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
	s.h.DecPending()
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
	// Dispatches counts requests the worker took off the queue, one each,
	// whether they executed, failed or were abandoned by their caller.
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
	// QueueWaits counts requests with a recorded queue wait.
	QueueWaits int64
	// QueueWaitMean and QueueWaitP90 summarize the wall-time queue-wait
	// distribution (zero until the first dispatch).
	QueueWaitMean time.Duration
	QueueWaitP90  time.Duration
}

// Stats returns a snapshot of the device's serving activity.
func (s *Server) Stats() DeviceStats {
	wait := s.queueWait.Snapshot()
	return DeviceStats{
		ID:            string(s.h.ID()),
		State:         s.h.State().String(),
		Jobs:          s.jobs.Value(),
		Dispatches:    s.dispatches.Value(),
		BusyTime:      time.Duration(s.h.Busy()),
		Queued:        s.h.Pending(),
		Errors:        s.errors.Value(),
		Canceled:      s.canceled.Value(),
		QueueFull:     s.queueFull.Value(),
		QueueWaits:    wait.Count,
		QueueWaitMean: time.Duration(wait.Mean),
		QueueWaitP90:  time.Duration(wait.P90),
	}
}

// Close stops the worker, fails queued requests with ErrClosed, and waits
// for the worker to exit. Close is idempotent.
func (s *Server) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.quit)
		s.wg.Wait()
		// Sweep once more after the worker exits: a submit racing with
		// Close can commit its enqueue after the worker's drain.
		s.failQueued()
		s.cfg.Events.LogDevice(context.Background(), eventlog.LevelInfo, "serve", "server.close",
			string(s.h.ID()), eventlog.F("jobs_total", s.jobs.Value()))
		return nil
	}
	s.wg.Wait()
	return nil
}
