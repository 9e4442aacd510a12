package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/ssd"
)

// fakeInf is a controllable engine: it charges a fixed simulated cost and
// can be gated so requests stay in flight (or queued) while a test arranges
// the scenario it wants.
type fakeInf struct {
	seqLen  int
	cost    time.Duration
	calls   atomic.Int64
	started chan struct{} // when non-nil, receives a token as a call begins
	release chan struct{} // when non-nil, every call waits for a token
}

func (f *fakeInf) exec() (kernels.Result, infer.Timing, error) {
	f.calls.Add(1)
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.release != nil {
		<-f.release
	}
	return kernels.Result{Probability: 0.1}, infer.Timing{Compute: f.cost}, nil
}

func (f *fakeInf) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	return f.exec()
}

func (f *fakeInf) PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, infer.Timing, error) {
	return f.exec()
}

func (f *fakeInf) SeqLen() int { return f.seqLen }

func testSeq() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8} }

// waitQueued polls until the device's backlog reaches want.
func waitQueued(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Queued >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("backlog never reached %d (stats %+v)", want, s.Stats())
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 2} {
		engines := make([]infer.Inferencer, n)
		for i := range engines {
			engines[i] = &fakeInf{seqLen: 8}
		}
		_, err := New(engines, Config{})
		if err == nil || !strings.Contains(err.Error(), "internal/fleet") {
			t.Errorf("%d engines: error = %v, want one pointing at internal/fleet", n, err)
		}
	}
	if _, err := New([]infer.Inferencer{nil}, Config{}); err == nil {
		t.Error("nil engine: expected error")
	}
	if _, err := New([]infer.Inferencer{&fakeInf{seqLen: 4}}, Config{QueueDepth: -1}); err == nil {
		t.Error("negative queue depth: expected error")
	}
	if _, err := New([]infer.Inferencer{&fakeInf{seqLen: 4}}, Config{BatchMax: -1}); err == nil {
		t.Error("negative batch max: expected error")
	}
	s, err := New([]infer.Inferencer{&fakeInf{seqLen: 8}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.SeqLen() != 8 {
		t.Fatalf("SeqLen = %d", s.SeqLen())
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 1, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	results := make(chan error, 2)
	submit := func() {
		defer wg.Done()
		_, _, err := s.Predict(context.Background(), testSeq())
		results <- err
	}
	wg.Add(1)
	go submit() // A: begins executing
	<-f.started
	wg.Add(1)
	go submit() // B: sits in the depth-1 queue
	waitQueued(t, s, 2)
	// C: queue is full, non-blocking mode sheds immediately.
	if _, _, err := s.Predict(context.Background(), testSeq()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated submit error = %v, want ErrQueueFull", err)
	}
	f.release <- struct{}{}
	f.release <- struct{}{}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

func TestBlockingBackpressureHonorsCancel(t *testing.T) {
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 1, Block: true, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		s.Predict(context.Background(), testSeq())
	}
	wg.Add(1)
	go submit() // A: executing
	<-f.started
	wg.Add(1)
	go submit() // B: queued
	waitQueued(t, s, 2)
	// C: blocks in the queue send until its context is canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cErr := make(chan error, 1)
	go func() {
		_, _, err := s.Predict(ctx, testSeq())
		cErr <- err
	}()
	waitQueued(t, s, 3) // pending counts the blocked sender
	cancel()
	if err := <-cErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked submit error = %v, want context.Canceled", err)
	}
	f.release <- struct{}{}
	f.release <- struct{}{}
	wg.Wait()
}

// TestServedRequestsAreRecycled pins that a served stored request leaves no
// garbage: its request and done channel go back to the server's pool once
// the caller holds the response, and the worker reuses its batch scratch.
// A live request allocates only the copy of its window.
func TestServedRequestsAreRecycled(t *testing.T) {
	s, err := New([]infer.Inferencer{&fakeInf{seqLen: 8}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for name, tc := range map[string]struct {
		call func() error
		want float64
	}{
		"stored": {func() error { _, _, err := s.PredictStored(ctx, 0); return err }, 0},
		"live":   {func() error { _, _, err := s.Predict(ctx, testSeq()); return err }, 1},
	} {
		var callErr error
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.call(); err != nil {
				callErr = err
			}
		})
		if callErr != nil {
			t.Fatalf("%s: %v", name, callErr)
		}
		if allocs != tc.want {
			t.Errorf("%s: %.0f allocations per served request, want %.0f", name, allocs, tc.want)
		}
	}
}

func TestCanceledQueuedRequestNeverReachesDevice(t *testing.T) {
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 4, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // A: begins executing and holds the device
		defer wg.Done()
		if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
			t.Error(err)
		}
	}()
	<-f.started
	// B: queued behind A with a cancelable context.
	ctx, cancel := context.WithCancel(context.Background())
	bErr := make(chan error, 1)
	go func() {
		_, _, err := s.Predict(ctx, testSeq())
		bErr <- err
	}()
	waitQueued(t, s, 2)
	cancel()
	if err := <-bErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued request error = %v, want context.Canceled", err)
	}
	f.release <- struct{}{} // let A finish; the worker then drains B
	wg.Wait()
	// C proves the device keeps serving after the abandoned request.
	f.release <- struct{}{}
	if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
		t.Fatal(err)
	}
	if got := f.calls.Load(); got != 2 {
		t.Fatalf("engine executed %d requests, want 2 (the canceled one must never reach it)", got)
	}
}

func TestExpiredDeadlineRejectedUpFront(t *testing.T) {
	f := &fakeInf{seqLen: 8}
	s, err := New([]infer.Inferencer{f}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := s.Predict(ctx, testSeq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline error = %v, want context.DeadlineExceeded", err)
	}
	if f.calls.Load() != 0 {
		t.Fatal("expired request reached the device")
	}
}

func TestStoredScanBatching(t *testing.T) {
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 8, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // live request holds the device while the scan burst queues
		defer wg.Done()
		if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
			t.Error(err)
		}
	}()
	<-f.started
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.PredictStored(context.Background(), int64(i*64)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitQueued(t, s, 5)
	for i := 0; i < 5; i++ {
		f.release <- struct{}{}
	}
	wg.Wait()
	st := s.Stats()
	if st.Jobs != 5 {
		t.Fatalf("jobs = %d, want 5", st.Jobs)
	}
	// The live request is one dispatch; the 4 adjacent stored requests must
	// coalesce into a single dispatch.
	if st.Dispatches != 2 {
		t.Fatalf("dispatches = %d, want 2 (batching inactive)", st.Dispatches)
	}
}

func TestCloseFailsPendingAndRejectsNew(t *testing.T) {
	f := &fakeInf{seqLen: 8}
	s, err := New([]infer.Inferencer{f}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close error = %v, want ErrClosed", err)
	}
}

// testEngines deploys one trained model onto n fresh simulated CSDs, with
// the scan target mirrored at offset 0 on every drive.
func testEngines(t *testing.T, n int) []infer.Inferencer {
	t.Helper()
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 20, EmbedDim: 4, HiddenSize: 6, CellActivation: activation.Softsign,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]infer.Inferencer, n)
	for i := range out {
		dev, err := csd.New(csd.Config{SSD: ssd.Config{Capacity: 1 << 20}})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.Deploy(dev, m, core.DeployConfig{SeqLen: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.StoreSequence(0, testSeq()); err != nil {
			t.Fatal(err)
		}
		out[i] = eng
	}
	return out
}

// TestConcurrentStress drives 64 concurrent callers through one simulated
// device — run under -race, it proves the scheduler serializes the engine
// correctly.
func TestConcurrentStress(t *testing.T) {
	s, err := New(testEngines(t, 1), Config{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const callers, perCaller = 64, 8
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				var err error
				if (g+i)%2 == 0 {
					_, _, err = s.Predict(context.Background(), testSeq())
				} else {
					_, _, err = s.PredictStored(context.Background(), 0)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if jobs := s.Stats().Jobs; jobs != callers*perCaller {
		t.Fatalf("total jobs = %d, want %d", jobs, callers*perCaller)
	}
}
