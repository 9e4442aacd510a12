package serve

import (
	"context"
	"testing"

	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// timingTap records the simulated timing of the last classification that
// passed through it, so the test can compare it with what the sinks saw.
type timingTap struct {
	infer.Inferencer
	last infer.Timing
}

func (t *timingTap) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	res, timing, err := t.Inferencer.Predict(ctx, seq)
	t.last = timing
	return res, timing, err
}

// TestOneWindowCorrelatesAcrossSinks sends one detector-driven window
// through a fully wired server and checks that every sink holds exactly one
// entry for it, all under the same non-zero job ID: the span log, the
// flight recorder, the event log and the trace timeline.
func TestOneWindowCorrelatesAcrossSinks(t *testing.T) {
	spans := telemetry.NewSpanLog(8)
	events := eventlog.New(eventlog.Config{MinLevel: eventlog.LevelDebug})
	defer events.Close()
	tracer := trace.New()
	p, err := prof.New(prof.Config{SampleEvery: -1, MutexFraction: -1, BlockRateNS: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	srv, err := New(testEngines(t, 1), Config{
		Spans: spans, Prof: p, Trace: tracer, Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tap := &timingTap{Inferencer: srv}
	det, err := detect.New(tap, detect.Config{Spans: spans, Prof: p, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	var windows int
	for _, call := range testSeq() {
		ev, err := det.Observe(context.Background(), call)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			windows++
		}
	}
	if windows != 1 {
		t.Fatalf("classified %d windows, want 1", windows)
	}

	logged := spans.Snapshot()
	if len(logged) != 1 {
		t.Fatalf("span log holds %d spans, want 1: %+v", len(logged), logged)
	}
	job := logged[0].ID
	if job == 0 {
		t.Fatal("span carries no job ID")
	}
	phases := map[string]int{}
	for _, ph := range logged[0].Phases {
		phases[ph.Name]++
		switch ph.Name {
		case telemetry.PhaseTransfer:
			if ph.Duration != tap.last.Transfer {
				t.Errorf("transfer phase %v, returned timing %v", ph.Duration, tap.last.Transfer)
			}
		case telemetry.PhaseCompute:
			if ph.Duration != tap.last.Compute {
				t.Errorf("compute phase %v, returned timing %v", ph.Duration, tap.last.Compute)
			}
		}
	}
	if phases[telemetry.PhaseTransfer] != 1 || phases[telemetry.PhaseCompute] != 1 {
		t.Errorf("span phases = %+v, want one transfer and one compute", logged[0].Phases)
	}

	if reqs := p.Snapshot().Requests; len(reqs) != 1 || reqs[0].Job != job {
		t.Errorf("flight recorder requests = %+v, want one with job %d", reqs, job)
	}

	var done []eventlog.Event
	for _, ev := range events.Recent() {
		if ev.Name == "request.done" {
			done = append(done, ev)
		}
	}
	if len(done) != 1 || done[0].Job != job {
		t.Errorf("request.done events = %+v, want one with job %d", done, job)
	}

	var queued []trace.Event
	for _, ev := range tracer.Events() {
		if ev.Name == "queue:predict" {
			queued = append(queued, ev)
		}
	}
	if len(queued) != 1 || queued[0].Job != job {
		t.Errorf("queue:predict trace events = %+v, want one with job %d", queued, job)
	}
}
