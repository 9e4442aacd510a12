package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/serve"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// fakeInf is a minimal engine: counts executions, optionally blocks until
// released, charges a fixed simulated cost.
type fakeInf struct {
	seqLen  int
	cost    time.Duration
	execs   atomic.Int64
	started chan struct{}
	release chan struct{}
}

func (f *fakeInf) exec(ctx context.Context) (kernels.Result, infer.Timing, error) {
	if f.started != nil {
		f.started <- struct{}{}
		select {
		case <-f.release:
		case <-ctx.Done():
			return kernels.Result{}, infer.Timing{}, ctx.Err()
		}
	}
	f.execs.Add(1)
	cost := f.cost
	if cost == 0 {
		cost = time.Microsecond
	}
	return kernels.Result{Probability: 0.5}, infer.Timing{Compute: cost}, nil
}

func (f *fakeInf) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	return f.exec(ctx)
}

func (f *fakeInf) PredictStored(ctx context.Context, off int64) (kernels.Result, infer.Timing, error) {
	return f.exec(ctx)
}

func (f *fakeInf) SeqLen() int { return f.seqLen }

func engines(n int) ([]infer.Inferencer, []*fakeInf) {
	out := make([]infer.Inferencer, n)
	raw := make([]*fakeInf, n)
	for i := range out {
		f := &fakeInf{seqLen: 8}
		out[i], raw[i] = f, f
	}
	return out, raw
}

func seq() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8} }

func totalExecs(raw []*fakeInf) int64 {
	var n int64
	for _, f := range raw {
		n += f.execs.Load()
	}
	return n
}

func TestTenantAffinity(t *testing.T) {
	engs, raw := engines(4)
	f, err := NewFromEngines(engs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx := infer.WithTenant(context.Background(), "tenant-alpha")
	for i := 0; i < 50; i++ {
		if _, _, err := f.Predict(ctx, seq()); err != nil {
			t.Fatal(err)
		}
	}
	// Consistent hashing: every window of one tenant lands on one device.
	var nonZero int
	for _, e := range raw {
		if n := e.execs.Load(); n > 0 {
			nonZero++
			if n != 50 {
				t.Fatalf("home device executed %d windows, want 50", n)
			}
		}
	}
	if nonZero != 1 {
		t.Fatalf("tenant smeared across %d devices, want 1", nonZero)
	}
}

// TestDrainReplacesTenantsWithoutLossOrDuplication drains each tenant's
// home device mid-stream and checks the stream continues on other devices
// with every window executed exactly once, then slides home on rejoin.
func TestDrainReplacesTenantsWithoutLossOrDuplication(t *testing.T) {
	engs, raw := engines(3)
	reg := telemetry.NewRegistry()
	f, err := NewFromEngines(engs, Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx := infer.WithTenant(context.Background(), "victim")
	// homeOf runs one probe window and returns the device that executed it.
	homeOf := func() int {
		before := make([]int64, len(raw))
		for i, e := range raw {
			before[i] = e.execs.Load()
		}
		if _, _, err := f.Predict(ctx, seq()); err != nil {
			t.Fatal(err)
		}
		for i, e := range raw {
			if e.execs.Load() > before[i] {
				return i
			}
		}
		t.Fatal("no device executed the probe")
		return -1
	}

	home := homeOf()
	homeID := f.Registry().List()[home].ID()
	if err := f.Drain(homeID, "reflash"); err != nil {
		t.Fatal(err)
	}
	const windows = 40
	for i := 0; i < windows; i++ {
		if _, _, err := f.Predict(ctx, seq()); err != nil {
			t.Fatalf("window %d during drain: %v", i, err)
		}
	}
	probeExecs := totalExecs(raw) - windows
	if n := raw[home].execs.Load(); n != probeExecs {
		t.Fatalf("drained device executed %d windows beyond the probes", n-probeExecs)
	}
	// Exactly once each: total executions == probes + windows.
	if n := totalExecs(raw); n != windows+probeExecs {
		t.Fatalf("fleet executed %d windows, want %d (lost or duplicated)", n, windows+probeExecs)
	}
	// The spilled tenant re-placed deterministically: one fallback device.
	var fallback int
	for i, e := range raw {
		if i != home && e.execs.Load() == windows {
			fallback++
		}
	}
	if fallback != 1 {
		t.Fatalf("drain spillover smeared across devices: %v",
			[]int64{raw[0].execs.Load(), raw[1].execs.Load(), raw[2].execs.Load()})
	}

	if err := f.Rejoin(homeID, "reflash-done"); err != nil {
		t.Fatal(err)
	}
	if got := homeOf(); got != home {
		t.Fatalf("tenant homed on device %d after rejoin, want %d", got, home)
	}
}

// TestFailureRecordsIncidentAndRetriesInFlight fails a device with requests
// in flight: queued requests re-place onto surviving devices (exactly-once),
// and the failure lands in the incident history with the right device ID.
func TestFailureRecordsIncidentAndRetriesInFlight(t *testing.T) {
	rec, err := incident.NewRecorder(incident.Config{})
	if err != nil {
		t.Fatal(err)
	}
	events := eventlog.New(eventlog.Config{})
	blocker := &fakeInf{seqLen: 8, started: make(chan struct{}, 1), release: make(chan struct{}, 8)}
	free := &fakeInf{seqLen: 8}
	f, err := NewFromEngines([]infer.Inferencer{blocker, free},
		Config{Block: true, Incidents: rec, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Find the tenant whose home is the blocking device.
	victimID := f.Registry().List()[0].ID()
	var tenant string
	for i := 0; ; i++ {
		tenant = fmt.Sprintf("tenant-%d", i)
		if f.ring.lookup(tenant, func(device.ID) bool { return true }) == victimID {
			break
		}
	}
	ctx := infer.WithTenant(context.Background(), tenant)

	const inFlight = 4
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = f.Predict(ctx, seq())
		}(i)
	}
	<-blocker.started // one request is on the device
	// Wait for the rest to be queued behind it, so the failure genuinely
	// catches them in flight on the victim.
	victim := f.byID[victimID]
	for deadline := time.Now().Add(2 * time.Second); victim.h.Pending() != inFlight; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests reached the victim", victim.h.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	victimSrv := victim.srv.Load()

	done := make(chan error, 1)
	go func() { done <- f.Fail(victimID, "simulated-fault") }()
	// Fail closes the victim's scheduler, which waits for the executing
	// request; release it only once the close is underway, so the worker
	// observes the quit signal and fails the queued requests over to the
	// survivor instead of executing them.
	for !victimSrv.Closed() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * time.Millisecond)
	blocker.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Exactly once: the executing request finished on the failed device,
	// the queued ones re-placed onto the survivor.
	if n := blocker.execs.Load() + free.execs.Load(); n != inFlight {
		t.Fatalf("%d executions for %d requests", n, inFlight)
	}
	if free.execs.Load() == 0 {
		t.Fatal("no request re-placed onto the surviving device")
	}

	// The failure is in the incident history, attributed to the device.
	var found bool
	for _, inc := range rec.Snapshot() {
		if inc.Kind == "device" {
			found = true
			if len(inc.Devices) != 1 || inc.Devices[0] != string(victimID) {
				t.Fatalf("device incident attributes %v, want [%s]", inc.Devices, victimID)
			}
			if inc.CloseReason != "device-failed" || inc.FailureReason != "simulated-fault" {
				t.Fatalf("device incident = %+v", inc)
			}
		}
	}
	if !found {
		t.Fatal("no device incident recorded")
	}

	// fleet.* events carry the device attribution.
	var wire bytes.Buffer
	for _, e := range events.Recent() {
		wire.Write(e.AppendJSON(nil))
		wire.WriteByte('\n')
	}
	for _, want := range []string{
		`"event":"fleet.node.fail"`,
		`"event":"fleet.retry"`,
		fmt.Sprintf(`"device":"%s"`, victimID),
	} {
		if !bytes.Contains(wire.Bytes(), []byte(want)) {
			t.Errorf("event stream missing %s", want)
		}
	}

	// Rejoin rebuilds the scheduler and the device serves again.
	if err := f.Rejoin(victimID, "repaired"); err != nil {
		t.Fatal(err)
	}
	blocker.started = nil // serve freely from here
	before := blocker.execs.Load()
	for i := 0; i < 4; i++ {
		if _, _, err := f.Predict(ctx, seq()); err != nil {
			t.Fatal(err)
		}
	}
	if blocker.execs.Load() == before {
		t.Fatal("rejoined device never served its tenant again")
	}
}

func TestAdmissionCaps(t *testing.T) {
	reg := telemetry.NewRegistry()
	blocker := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	f, err := NewFromEngines([]infer.Inferencer{blocker}, Config{
		QueueDepth: 4,
		Block:      true,
		Telemetry:  reg,
		Classes:    []Class{{Name: "bulk", Share: 0.5}, {Name: "interactive", Share: 1}},
		ClassOf: func(tenant string) string {
			if tenant == "scanner" {
				return "bulk"
			}
			return "interactive"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// bulk cap = floor(0.5 × 1 × 4) = 2: two in flight, the third rejects.
	ctx := infer.WithTenant(context.Background(), "scanner")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := f.Predict(ctx, seq()); err != nil {
				t.Error(err)
			}
		}()
	}
	<-blocker.started
	waitInflight(t, f, "bulk", 2)
	if _, _, err := f.Predict(ctx, seq()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("over-cap submit: %v, want ErrAdmission", err)
	}
	// The other class is unaffected by bulk's saturation.
	ictx := infer.WithTenant(context.Background(), "user-1")
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := f.Predict(ictx, seq()); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 3; i++ {
		blocker.release <- struct{}{}
	}
	wg.Wait()

	snap := findSeries(t, reg, "fleet_rejected_total", "class", "bulk")
	if snap != 1 {
		t.Fatalf("fleet_rejected_total{class=bulk} = %d, want 1", snap)
	}
	if n := findSeries(t, reg, "fleet_admitted_total", "class", "interactive"); n != 1 {
		t.Fatalf("fleet_admitted_total{class=interactive} = %d, want 1", n)
	}
}

func waitInflight(t *testing.T, f *Fleet, class string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if f.classes[class].inflight.Load() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("class %s never reached %d in flight", class, want)
}

func findSeries(t *testing.T, reg *telemetry.Registry, name, labelKey, labelVal string) int64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		for _, l := range m.Labels {
			if l.Key == labelKey && l.Value == labelVal {
				return m.Value
			}
		}
	}
	t.Fatalf("series %s{%s=%q} not in registry", name, labelKey, labelVal)
	return 0
}

func TestQueueWaitMergesAcrossDevices(t *testing.T) {
	engs, _ := engines(3)
	reg := telemetry.NewRegistry()
	f, err := NewFromEngines(engs, Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 30; i++ {
		ctx := infer.WithTenant(context.Background(), fmt.Sprintf("t-%d", i))
		if _, _, err := f.Predict(ctx, seq()); err != nil {
			t.Fatal(err)
		}
	}
	snap := f.QueueWait()
	if snap.Count != 30 {
		t.Fatalf("merged queue-wait count = %d, want 30", snap.Count)
	}
	if snap.P99 < float64(snap.P50) || snap.Max < snap.Min {
		t.Fatalf("merged snapshot inconsistent: %+v", snap)
	}
}

// TestStressConcurrentDrainRejoin is the acceptance stress: 64 concurrent
// callers against a 16-node fleet while one device runs a drain/rejoin
// cycle mid-load. Run with -race. Drain is the graceful path, so every
// window must succeed and execute exactly once.
func TestStressConcurrentDrainRejoin(t *testing.T) {
	engs, raw := engines(16)
	f, err := NewFromEngines(engs, Config{Block: true, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const callers = 64
	const perCaller = 25
	var wg sync.WaitGroup
	start := make(chan struct{})
	var failures atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := infer.WithTenant(context.Background(), fmt.Sprintf("tenant-%d", c))
			<-start
			for i := 0; i < perCaller; i++ {
				if _, _, err := f.Predict(ctx, seq()); err != nil {
					t.Errorf("caller %d window %d: %v", c, i, err)
					failures.Add(1)
					return
				}
			}
		}(c)
	}

	drained := f.Registry().List()[3].ID()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(2 * time.Millisecond)
		if err := f.Drain(drained, "stress-maintenance"); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(5 * time.Millisecond)
		if err := f.Rejoin(drained, "stress-maintenance-done"); err != nil {
			t.Error(err)
		}
	}()

	close(start)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d callers failed", failures.Load())
	}
	if n := totalExecs(raw); n != callers*perCaller {
		t.Fatalf("fleet executed %d windows, want %d (lost or duplicated)", n, callers*perCaller)
	}
}

func TestClosedFleetRejects(t *testing.T) {
	engs, _ := engines(2)
	f, err := NewFromEngines(engs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := f.Predict(context.Background(), seq()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed fleet: %v", err)
	}
}

// TestLeastBusyPlacement covers the untenanted path: with no tenant to
// hash, each request goes to the ready device with the least simulated
// outstanding work, so a 10× cost asymmetry steers most work to the fast
// device where round-robin would split 11/11.
func TestLeastBusyPlacement(t *testing.T) {
	slow := &fakeInf{seqLen: 8, cost: 10 * time.Millisecond}
	fast := &fakeInf{seqLen: 8, cost: time.Millisecond}
	f, err := NewFromEngines([]infer.Inferencer{slow, fast}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 22; i++ {
		if _, _, err := f.Predict(context.Background(), seq()); err != nil {
			t.Fatal(err)
		}
	}
	sc, fc := slow.execs.Load(), fast.execs.Load()
	if sc+fc != 22 {
		t.Fatalf("calls = %d + %d, want 22", sc, fc)
	}
	if fc <= 2*sc {
		t.Fatalf("least-busy placement ineffective: slow %d, fast %d", sc, fc)
	}
}

// TestDefaultClassNeverRejects pins the documented contract of a fleet
// configured without classes: admission never rejects, so blocking callers
// beyond nodes × depth wait for queue space instead of failing.
func TestDefaultClassNeverRejects(t *testing.T) {
	blocker := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	f, err := NewFromEngines([]infer.Inferencer{blocker}, Config{QueueDepth: 1, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer close(blocker.release) // unblocks the engine if the test fails early
	const callers = 3            // one executing, one queued, one blocked on the full queue
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, _, err := f.Predict(context.Background(), seq())
			errs <- err
		}()
	}
	waitInflight(t, f, "default", callers)
	for i := 0; i < callers; i++ {
		blocker.release <- struct{}{}
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}

// TestNoReadyDeviceIsServeSentinel: a full blackout fails with the one
// ErrNoReadyDevice sentinel the serving stack shares, so callers matching
// serve's error (load reports, the facade) classify it.
func TestNoReadyDeviceIsServeSentinel(t *testing.T) {
	engs, _ := engines(2)
	f, err := NewFromEngines(engs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, d := range f.Registry().List() {
		if err := f.Fail(d.ID(), "blackout"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := f.Predict(context.Background(), seq()); !errors.Is(err, serve.ErrNoReadyDevice) {
		t.Fatalf("blackout error = %v, want serve.ErrNoReadyDevice", err)
	}
}
