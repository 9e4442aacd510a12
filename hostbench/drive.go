package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
)

// failedLatency stands in for the latency of a failed or refused window:
// it is over any limit.
const failedLatency = time.Duration(math.MaxInt64)

// shedAfter is how late live-open may send a window before shedding it.
const shedAfter = 5 * time.Second

// tally is what one client goroutine observed. Ops before the warm-up ends
// are checked (attempted/failed) but not measured.
type tally struct {
	attempted, failed int
	firstErr          error

	// The measured interval, in buckets of win.bucketLen.
	win     window
	buckets []bucket
	lag     []time.Duration // live-open: actual minus intended send
	shed    int             // live-open windows never sent

	// Simulated device time summed over simN served windows.
	simN    int
	simSum  time.Duration // transfer + compute
	simComp time.Duration // compute
}

// bucket is one slice of the measured interval.
type bucket struct {
	lat     []time.Duration // per window; failedLatency when it failed
	windows int             // windows classified
	calls   int             // API calls ingested
}

func newTally(win window) *tally {
	return &tally{win: win, buckets: make([]bucket, win.buckets)}
}

// at returns the bucket an op started at t falls in, nil outside the
// measured interval.
func (t *tally) at(at time.Time) *bucket {
	if at.Before(t.win.measure) {
		return nil
	}
	i := int(at.Sub(t.win.measure) / t.win.bucketLen)
	if i >= len(t.buckets) {
		return nil
	}
	return &t.buckets[i]
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// served records one checked classification that started at start.
func (t *tally) served(start time.Time, lat time.Duration, tm infer.Timing, err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
		lat = failedLatency
	}
	b := t.at(start)
	if b == nil {
		return
	}
	b.lat = append(b.lat, lat)
	if err == nil {
		b.windows++
		b.calls += seqLen
		t.simN++
		t.simSum += tm.Total()
		t.simComp += tm.Compute
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	for i := range t.buckets {
		t.buckets[i].lat = append(t.buckets[i].lat, o.buckets[i].lat...)
		t.buckets[i].windows += o.buckets[i].windows
		t.buckets[i].calls += o.buckets[i].calls
	}
	t.lag = append(t.lag, o.lag...)
	t.shed += o.shed
	t.simN += o.simN
	t.simSum += o.simSum
	t.simComp += o.simComp
}

// latencies returns every measured window latency, sorted.
func (t *tally) latencies() []time.Duration {
	var all []time.Duration
	for _, b := range t.buckets {
		all = append(all, b.lat...)
	}
	return sorted(all)
}

// windows counts the measured windows classified.
func (t *tally) windows() int {
	n := 0
	for _, b := range t.buckets {
		n += b.windows
	}
	return n
}

// perBucket is the median over the measured buckets of f: a slow second
// on a shared host moves it less than it moves a whole-run figure.
func (t *tally) perBucket(f func(b bucket) float64) float64 {
	v := make([]float64, len(t.buckets))
	for i, b := range t.buckets {
		v[i] = f(b)
	}
	return median(v)
}

// window is the measured interval of one run, cut into buckets.
type window struct {
	start, measure, end time.Time
	bucketLen           time.Duration
	buckets             int
}

func newWindow(warmup, seconds time.Duration) window {
	// A short lead lets every client reach its first send before time zero.
	start := time.Now().Add(5 * time.Millisecond)
	n := max(1, int(seconds/time.Second))
	return window{
		start:     start,
		measure:   start.Add(warmup),
		end:       start.Add(warmup + seconds),
		bucketLen: seconds / time.Duration(n),
		buckets:   n,
	}
}

// drive runs the workload's clients against the fleet until the window
// ends, checking every answer against the reference.
func drive(w *workload, ref *reference, fl *fleet.Fleet, win window) *tally {
	tallies := make([]*tally, clients)
	var wg sync.WaitGroup
	var next atomic.Int64 // live-open: next arrival to send
	for c := 0; c < clients; c++ {
		tallies[c] = newTally(win)
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch w.name {
			case wlLive:
				driveLive(w, ref, fl, win, &next, tallies[c])
			case wlStream:
				driveStream(w.streams[c], ref, ref.passes[c], fl, win, tallies[c])
			case wlScan:
				driveScan(w, ref, w.orders[c], fl, win, tallies[c])
			}
		}()
	}
	wg.Wait()
	out := newTally(win)
	for _, t := range tallies {
		out.merge(t)
	}
	return out
}

// driveLive is one of the open-loop senders: it takes the next scheduled
// arrival, waits for its intended send time, and times the window from
// that intent, so a sender stalled behind a slow window charges the wait
// to the windows queued behind it.
func driveLive(w *workload, ref *reference, fl *fleet.Fleet, win window, next *atomic.Int64, t *tally) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(w.arrivals) {
			return
		}
		a := w.arrivals[i]
		intended := win.start.Add(a.at)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		} else if -d > shedAfter {
			// Hopelessly behind schedule: shed the window, charged as over
			// any latency limit, so an overloaded run still ends.
			t.shed++
			if b := t.at(intended); b != nil {
				b.lat = append(b.lat, failedLatency)
			}
			continue
		}
		sent := time.Now()
		res, tm, err := fl.Predict(w.ctxs[a.win], w.windows[a.win])
		done := time.Now()
		if err == nil {
			err = ref.verify(res, tm, ref.results[a.win], false)
		}
		t.served(intended, done.Sub(intended), tm, err)
		if t.at(intended) != nil {
			t.lag = append(t.lag, sent.Sub(intended))
		}
	}
}

// driveScan is one closed-loop background scanner: untenanted stored
// classifications over its seeded permutation of the mirrored sequences.
func driveScan(w *workload, ref *reference, order []int, fl *fleet.Fleet, win window, t *tally) {
	ctx := context.Background()
	waitUntil(win.start)
	for k := 0; ; k++ {
		i := order[k%len(order)]
		start := time.Now()
		if !start.Before(win.end) {
			return
		}
		res, tm, err := fl.PredictStored(ctx, storedOffset(i))
		lat := time.Since(start)
		if err == nil {
			err = ref.verify(res, tm, ref.results[i], true)
		}
		t.served(start, lat, tm, err)
	}
}

// driveStream replays one API-call stream through per-process detection,
// pass after pass, each checked window for window against the reference
// pass.
func driveStream(st stream, ref *reference, want *pass, fl *fleet.Fleet, win window, t *tally) {
	waitUntil(win.start)
	for time.Now().Before(win.end) {
		chk := &streamChecker{inner: fl, ref: ref, want: want}
		observe := func(start time.Time, lat time.Duration, classified bool) {
			b := t.at(start)
			if b == nil {
				return
			}
			b.calls++
			if classified {
				b.windows++
				b.lat = append(b.lat, lat)
			}
		}
		got, err := replay(st, chk, win.end, observe)
		t.attempted += chk.next
		t.failed += chk.failures
		if t.firstErr == nil {
			t.firstErr = chk.firstErr
		}
		switch {
		case err != nil:
			t.attempted++
			t.fail(err)
		case got.partial:
		case chk.next != len(want.windows) || !slices.Equal(got.blocks, want.blocks):
			t.fail(fmt.Errorf("pass classified %d windows and blocked %v, reference %d and %v",
				chk.next, got.blocks, len(want.windows), want.blocks))
		}
		t.simN += chk.next
		t.simSum += chk.simSum
		t.simComp += chk.simComp
		if err != nil {
			return
		}
	}
}

func waitUntil(at time.Time) {
	if d := time.Until(at); d > 0 {
		time.Sleep(d)
	}
}

// streamChecker sits between a stream's detect.Mux and the fleet and
// verifies every window the Mux classifies against the reference pass.
type streamChecker struct {
	inner infer.Inferencer
	ref   *reference
	want  *pass

	next     int // index into want's windows
	failures int
	firstErr error
	simSum   time.Duration
	simComp  time.Duration
}

func (c *streamChecker) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	res, tm, err := c.inner.Predict(ctx, seq)
	if err != nil {
		return res, tm, err
	}
	switch {
	case c.next >= len(c.want.windows):
		err = errors.New("window beyond the reference pass")
	case !slices.Equal(seq, c.want.windows[c.next]):
		err = errors.New("window content differs from the reference pass")
	default:
		err = c.ref.verify(res, tm, c.want.results[c.next], false)
	}
	if err != nil {
		c.failures++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("stream window %d: %w", c.next, err)
		}
	}
	c.simSum += tm.Total()
	c.simComp += tm.Compute
	c.next++
	return res, tm, nil
}

func (c *streamChecker) PredictStored(ctx context.Context, off int64) (kernels.Result, infer.Timing, error) {
	return c.inner.PredictStored(ctx, off)
}

func (c *streamChecker) SeqLen() int { return c.inner.SeqLen() }

// heapSampler records in-use heap bytes every few milliseconds over the
// measured interval and keeps each second's peak.
type heapSampler struct {
	peaks []float64 // per-second peak, bytes
}

// sample samples until win.end, and reads the runtime's work over the
// measured interval into rt; run it on its own goroutine.
func (h *heapSampler) sample(win window, rt *runtimeDelta) {
	waitUntil(win.measure)
	before := readRuntime()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	second := win.measure.Add(time.Second)
	var peak uint64
	for now := range tick.C {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
		done := !now.Before(win.end)
		if done || !now.Before(second) {
			h.peaks = append(h.peaks, float64(peak))
			peak = 0
			second = second.Add(time.Second)
		}
		if done {
			*rt = runtimeBetween(before, readRuntime())
			return
		}
	}
}
