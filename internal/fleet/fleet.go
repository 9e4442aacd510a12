// Package fleet is the serving layer for more than one device: N simulated
// CSD nodes behind tenant-aware placement and device failure/drain/rejoin
// flows. It is the only multi-device front end; a one-device deployment is
// simply a one-node fleet.
//
// The paper deploys one SmartSSD; its scalability argument (§II) is that
// data centers install many. With many devices two concerns appear that a
// per-device scheduler does not address. Placement: a tenant's windows
// should land on one device (cache locality, coherent per-device forensic
// timelines), so the fleet consistent-hashes tenant IDs over the device ring
// and spills to the least-simulated-busy ready device only when the home
// device is out of rotation or the request is untenanted. Lifecycle: drives
// drain for maintenance, fail, and rejoin; the fleet watches the shared
// device registry, re-places affected tenants (a failed node's in-flight
// requests are retried once on another device — the failing server completes
// or fails each request exactly once, so no window is lost or duplicated),
// records device incidents, and emits fleet.* events alongside the
// registry's device.* stream.
//
// Each node is one registry device, one simulated SmartSSD with a deployed
// engine, and a single-engine serve.Server providing the bounded queue and
// backpressure; the fleet layers placement and lifecycle on top. All methods
// are safe for concurrent use.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/serve"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("fleet: closed")

// ErrNoReadyDevice is returned when no device in the fleet is Ready. It is
// serve's sentinel, so one errors.Is check covers both layers.
var ErrNoReadyDevice = serve.ErrNoReadyDevice

// Config controls a Fleet.
type Config struct {
	// Nodes is the number of CSD nodes; 0 defaults to 2.
	Nodes int
	// QueueDepth bounds each node's request queue; 0 defaults to 64.
	QueueDepth int
	// Block makes a full home-node queue block the caller instead of
	// failing fast (per-node serve semantics).
	Block bool
	// Deploy configures the engines (zero value = paper defaults). The
	// model is compiled once with it; the per-device TraceName is derived
	// from the registry ID.
	Deploy core.DeployConfig
	// Registry, when non-nil, is the shared device registry; nil builds a
	// private one. Each node registers one device ("csd-000", ...).
	Registry *device.Registry
	// Telemetry, when non-nil, receives the fleet metrics
	// (fleet_retries_total, fleet_spillover_total) plus every per-device
	// serve and registry series.
	Telemetry *telemetry.Registry
	// Spans, Trace, and Events are threaded into each node's scheduler and
	// engine, so fleet requests carry the same correlation IDs as
	// single-node serving.
	Spans  *telemetry.SpanLog
	Trace  *trace.Tracer
	Events *eventlog.Logger
	// Incidents, when non-nil, receives a device incident per failure.
	Incidents *incident.Recorder
	// Prof, when non-nil, is threaded into each node's scheduler so every
	// fleet request gets a per-stage host-cost breakdown in the continuous
	// profiler's flight recorder.
	Prof *prof.Profiler
}

func (c *Config) defaults() error {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.Nodes < 0 {
		return fmt.Errorf("fleet: Nodes must be positive, got %d", c.Nodes)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("fleet: QueueDepth must be positive, got %d", c.QueueDepth)
	}
	return nil
}

// node is one CSD node: a registry device, its engine, and the single-engine
// scheduler that serializes access. srv is swapped atomically on fail/rejoin;
// a caller holding the old server gets ErrClosed and retries elsewhere.
type node struct {
	h   *device.Device
	dev *csd.SmartSSD // nil when built from bare engines (tests)
	eng infer.Inferencer
	srv atomic.Pointer[serve.Server]
}

// Fleet is the rack-scale serving layer. It implements infer.Inferencer.
type Fleet struct {
	cfg      Config
	registry *device.Registry
	nodes    []*node
	byID     map[device.ID]*node
	ring     *ring

	retries   *telemetry.Counter
	spillover *telemetry.Counter

	closed  atomic.Bool
	unwatch func()
}

var _ infer.Inferencer = (*Fleet)(nil)

// New builds a fleet: cfg.Nodes fresh simulated SmartSSDs (csd.Config's
// defaults), each with the model deployed and fronted by its own
// bounded-queue scheduler. The model is compiled once (core.Compile) and the
// image loaded onto every node, so the engines share one set of quantized
// parameters.
func New(m *lstm.Model, cfg Config) (*Fleet, error) {
	if m == nil {
		return nil, errors.New("fleet: nil model")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	deploy := cfg.Deploy
	if deploy.Telemetry == nil {
		deploy.Telemetry = cfg.Telemetry
	}
	if deploy.Trace == nil {
		deploy.Trace = cfg.Trace
	}
	if deploy.Events == nil {
		deploy.Events = cfg.Events
	}
	// Every node serves the same model: compile it (DRC, overflow proof,
	// quantization, weight file) once, before any device is registered,
	// and load the one image onto each node.
	img, err := core.Compile(m, deploy)
	if err != nil {
		return nil, fmt.Errorf("fleet: compile model: %w", err)
	}
	f := newFleet(&cfg)
	for i := 0; i < cfg.Nodes; i++ {
		h := f.registry.Register()
		dev, err := csd.New(csd.Config{})
		if err != nil {
			return nil, fmt.Errorf("fleet: device %s: %w", h.ID(), err)
		}
		eng, err := img.Deploy(dev, string(h.ID()))
		if err != nil {
			return nil, fmt.Errorf("fleet: deploy to device %s: %w", h.ID(), err)
		}
		if err := f.addNode(h, dev, eng); err != nil {
			return nil, err
		}
	}
	return f.start()
}

// NewFromEngines builds a fleet over caller-supplied engines, one node per
// engine — the test seam (no CSD deployment, so stored scans depend on the
// engines' own storage). cfg.Nodes is ignored in favor of len(engines).
func NewFromEngines(engines []infer.Inferencer, cfg Config) (*Fleet, error) {
	if len(engines) == 0 {
		return nil, errors.New("fleet: no engines")
	}
	cfg.Nodes = len(engines)
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	f := newFleet(&cfg)
	for _, eng := range engines {
		if eng == nil {
			return nil, errors.New("fleet: nil engine")
		}
		if err := f.addNode(f.registry.Register(), nil, eng); err != nil {
			return nil, err
		}
	}
	return f.start()
}

func newFleet(cfg *Config) *Fleet {
	reg := cfg.Registry
	if reg == nil {
		reg = device.NewRegistry(device.Config{
			Telemetry: cfg.Telemetry, Events: cfg.Events,
		})
	}
	return &Fleet{
		cfg:      *cfg,
		registry: reg,
		byID:     make(map[device.ID]*node),
		retries: cfg.Telemetry.Counter("fleet_retries_total",
			"In-flight requests re-placed after a device failure."),
		spillover: cfg.Telemetry.Counter("fleet_spillover_total",
			"Tenant requests placed off their hash-home device."),
	}
}

func (f *Fleet) addNode(h *device.Device, dev *csd.SmartSSD, eng infer.Inferencer) error {
	n := &node{h: h, dev: dev, eng: eng}
	srv, err := f.newServer(n)
	if err != nil {
		return err
	}
	n.srv.Store(srv)
	if err := h.SetReady("fleet-deploy"); err != nil {
		return err
	}
	f.nodes = append(f.nodes, n)
	f.byID[h.ID()] = n
	return nil
}

// newServer builds the single-engine scheduler for one node.
func (f *Fleet) newServer(n *node) (*serve.Server, error) {
	return serve.New([]infer.Inferencer{n.eng}, serve.Config{
		QueueDepth: f.cfg.QueueDepth,
		Block:      f.cfg.Block,
		Device:     n.h,
		Telemetry:  f.cfg.Telemetry,
		Spans:      f.cfg.Spans,
		Trace:      f.cfg.Trace,
		Events:     f.cfg.Events,
		Prof:       f.cfg.Prof,
	})
}

// start wires the lifecycle watcher and announces the fleet.
func (f *Fleet) start() (*Fleet, error) {
	ids := make([]device.ID, len(f.nodes))
	for i, n := range f.nodes {
		ids[i] = n.h.ID()
	}
	f.ring = newRing(ids)
	f.unwatch = f.registry.Watch(f.onChange)
	f.cfg.Events.Info(context.Background(), "fleet", "fleet.start",
		eventlog.F("nodes", len(f.nodes)),
		eventlog.F("queue_depth", f.cfg.QueueDepth))
	return f, nil
}

// onChange reacts to registry lifecycle transitions for the fleet's own
// devices: a failure closes the node's scheduler (releasing in-flight
// requests for retry elsewhere) and records a device incident; drains and
// rejoins are placement-only (the ring honors state at lookup time) and
// are echoed as fleet.* events for the fleet-level audit trail.
func (f *Fleet) onChange(ch device.Change) {
	n, ok := f.byID[ch.Device]
	if !ok {
		return // another layer's device in a shared registry
	}
	ctx := context.Background()
	switch {
	case ch.To == device.Failed:
		if srv := n.srv.Swap(nil); srv != nil {
			srv.Close()
		}
		f.cfg.Events.LogDevice(ctx, eventlog.LevelError, "fleet", "fleet.node.fail",
			string(ch.Device), eventlog.F("reason", ch.Reason))
		f.cfg.Incidents.DeviceFailure(string(ch.Device), ch.Reason)
	case ch.To == device.Draining:
		f.cfg.Events.LogDevice(ctx, eventlog.LevelInfo, "fleet", "fleet.node.drain",
			string(ch.Device), eventlog.F("reason", ch.Reason))
	case ch.To == device.Ready && ch.From != device.Provisioning:
		f.cfg.Events.LogDevice(ctx, eventlog.LevelInfo, "fleet", "fleet.node.rejoin",
			string(ch.Device), eventlog.F("reason", ch.Reason))
	}
}

// Drain takes a device out of placement for maintenance; queued work
// finishes and the device rejoins with Rejoin. The device's tenants
// re-place onto the next ring device until then.
func (f *Fleet) Drain(id device.ID, reason string) error {
	n, ok := f.byID[id]
	if !ok {
		return fmt.Errorf("fleet: unknown device %s", id)
	}
	return n.h.Drain(reason)
}

// Fail simulates a device fault: the device leaves rotation immediately,
// its scheduler is closed (in-flight requests are re-placed onto other
// devices), and a device incident is recorded.
func (f *Fleet) Fail(id device.ID, reason string) error {
	n, ok := f.byID[id]
	if !ok {
		return fmt.Errorf("fleet: unknown device %s", id)
	}
	return n.h.Fail(reason)
}

// Rejoin returns a drained or failed device to rotation. After a failure
// the node's scheduler is rebuilt over the surviving engine (the simulated
// repair path); after a drain the running scheduler simply resumes
// attracting placements.
func (f *Fleet) Rejoin(id device.ID, reason string) error {
	n, ok := f.byID[id]
	if !ok {
		return fmt.Errorf("fleet: unknown device %s", id)
	}
	if n.srv.Load() == nil {
		srv, err := f.newServer(n)
		if err != nil {
			return err
		}
		// Publish the server before flipping state, so no placement can
		// find a Ready device with a nil scheduler.
		n.srv.Store(srv)
	}
	return n.h.SetReady(reason)
}

// Registry returns the shared device registry.
func (f *Fleet) Registry() *device.Registry { return f.registry }

// Nodes returns the number of devices in the fleet.
func (f *Fleet) Nodes() int { return len(f.nodes) }

// Device returns the i-th node's simulated SSD (nil for engine-only
// fleets), e.g. to store sequences for stored scans.
func (f *Fleet) Device(i int) *csd.SmartSSD { return f.nodes[i].dev }

// SeqLen returns the deployed engines' classification window length.
func (f *Fleet) SeqLen() int { return f.nodes[0].eng.SeqLen() }

// place picks the serving node for a tenant: the tenant's consistent-hash
// home when it is ready, else the least-simulated-busy ready device
// (spillover, counted). Untenanted requests always go least-busy.
func (f *Fleet) place(tenant string) *node {
	if tenant != "" {
		home := f.ring.lookup(tenant, func(id device.ID) bool {
			n := f.byID[id]
			return n.h.IsReady() && n.srv.Load() != nil
		})
		if home != "" {
			n := f.byID[home]
			// The walk itself implements spillover: count it when the
			// first choice for this tenant was skipped.
			if first := f.ring.lookup(tenant, func(device.ID) bool { return true }); first != home {
				f.spillover.Inc()
			}
			return n
		}
		return nil
	}
	var best *node
	var bestScore int64
	for _, n := range f.nodes {
		if !n.h.IsReady() || n.srv.Load() == nil {
			continue
		}
		if sc := n.h.Score(); best == nil || sc < bestScore {
			best, bestScore = n, sc
		}
	}
	return best
}

// Predict classifies a live window on the tenant's home device (or the
// least-busy ready device for untenanted requests), re-placing once if the
// chosen device fails mid-flight.
func (f *Fleet) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	return f.submit(ctx, func(srv *serve.Server) (kernels.Result, infer.Timing, error) {
		return srv.Predict(ctx, seq)
	})
}

// PredictStored classifies the sequence at the given SSD byte offset on
// the placed device; offsets presume scan targets are mirrored across the
// fleet (the background-scan replication deployment).
func (f *Fleet) PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, infer.Timing, error) {
	return f.submit(ctx, func(srv *serve.Server) (kernels.Result, infer.Timing, error) {
		return srv.PredictStored(ctx, ssdOff)
	})
}

func (f *Fleet) submit(ctx context.Context, call func(*serve.Server) (kernels.Result, infer.Timing, error)) (kernels.Result, infer.Timing, error) {
	if f.closed.Load() {
		return kernels.Result{}, infer.Timing{}, ErrClosed
	}
	tenant := infer.TenantFrom(ctx)
	// One retry covers the single-failure case: the failing scheduler
	// completes or fails every accepted request exactly once (responses
	// finished just before close are still delivered), so re-placing on
	// ErrClosed/ErrNoReadyDevice cannot lose or duplicate a window.
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		n := f.place(tenant)
		if n == nil {
			return kernels.Result{}, infer.Timing{}, ErrNoReadyDevice
		}
		srv := n.srv.Load()
		if srv == nil {
			lastErr = serve.ErrClosed
			continue
		}
		res, timing, err := call(srv)
		if err == nil ||
			(!errors.Is(err, serve.ErrClosed) && !errors.Is(err, serve.ErrNoReadyDevice)) {
			return res, timing, err
		}
		lastErr = err
		f.retries.Inc()
		f.cfg.Events.LogDevice(ctx, eventlog.LevelWarn, "fleet", "fleet.retry",
			string(n.h.ID()), eventlog.F("attempt", attempt+1))
	}
	return kernels.Result{}, infer.Timing{}, fmt.Errorf("fleet: request re-placement failed: %w", lastErr)
}

// NodeStats describes one fleet node.
type NodeStats struct {
	// Serve is the node's serving snapshot.
	Serve serve.DeviceStats
}

// Stats returns per-node serving snapshots, ordered by device ID.
func (f *Fleet) Stats() []NodeStats {
	out := make([]NodeStats, 0, len(f.nodes))
	for _, n := range f.nodes {
		if srv := n.srv.Load(); srv != nil {
			out = append(out, NodeStats{Serve: srv.Stats()})
		} else {
			out = append(out, NodeStats{Serve: serve.DeviceStats{
				ID:    string(n.h.ID()),
				State: n.h.State().String(),
			}})
		}
	}
	// Node order is registration order, which is ID order already; keep
	// the contract explicit against future membership changes.
	for i := 1; i < len(out); i++ {
		if out[i-1].Serve.ID > out[i].Serve.ID {
			panic("fleet: nodes out of ID order")
		}
	}
	return out
}

// QueueWait merges every node's queue-wait histogram into one fleet-wide
// wall-time distribution — the p99 the fleet benchmark gates on. It reads
// the same telemetry series exposed at /metrics; a fleet built without
// telemetry returns the zero snapshot.
func (f *Fleet) QueueWait() telemetry.HistogramSnapshot {
	if f.cfg.Telemetry == nil {
		return telemetry.HistogramSnapshot{}
	}
	var snaps []telemetry.HistogramSnapshot
	for _, m := range f.cfg.Telemetry.Snapshot() {
		if m.Name == "serve_queue_wait_seconds" && m.Histogram != nil {
			snaps = append(snaps, *m.Histogram)
		}
	}
	return telemetry.MergeHistogramSnapshots(snaps)
}

// Close shuts every node's scheduler down and detaches the lifecycle
// watcher. Close is idempotent.
func (f *Fleet) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	f.unwatch()
	for _, n := range f.nodes {
		if srv := n.srv.Swap(nil); srv != nil {
			srv.Close()
		}
	}
	f.cfg.Events.Info(context.Background(), "fleet", "fleet.close",
		eventlog.F("nodes", len(f.nodes)))
	return nil
}
