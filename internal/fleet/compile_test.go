package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/drc"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

func paperModel(tb testing.TB) *lstm.Model {
	tb.Helper()
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// newEventLog records every level into a capture sink, which, unlike the
// logger's bounded ring, keeps all of a 4-node fleet's deploy and
// design-rule events.
func newEventLog() (*eventlog.Logger, *eventlog.CaptureSink) {
	log := eventlog.New(eventlog.Config{
		MinLevel: eventlog.LevelDebug,
		Clock:    func() time.Time { return time.Time{} },
	})
	sink := &eventlog.CaptureSink{}
	log.Attach("capture", sink)
	return log, sink
}

// coreEvents closes the logger, flushing its sink, and returns the events
// the engine layer emitted, without the logger-assigned sequence numbers.
func coreEvents(tb testing.TB, log *eventlog.Logger, sink *eventlog.CaptureSink) []eventlog.Event {
	tb.Helper()
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
	if st := log.SinkStats(); st[0].Dropped != 0 {
		tb.Fatalf("capture sink dropped %d events", st[0].Dropped)
	}
	var out []eventlog.Event
	for _, ev := range sink.Events() {
		if ev.Component == "core" {
			ev.Seq = 0
			out = append(out, ev)
		}
	}
	return out
}

// TestFleetNewMatchesSeparateDeploys pins compile-once: a wired 4-node
// fleet emits, device by device, the same engine.drc findings and the same
// engine.deploy fields (weight_bytes, init_ns, ...) as four separate
// core.Deploy calls, and its engines share one input-projection table.
func TestFleetNewMatchesSeparateDeploys(t *testing.T) {
	m := paperModel(t)
	for _, level := range []kernels.OptLevel{kernels.LevelFixedPoint, kernels.LevelVanilla} {
		t.Run(level.String(), func(t *testing.T) {
			deploy := core.DeployConfig{Level: level}
			want, wantSink := newEventLog()
			for i := 0; i < 4; i++ {
				dev, err := csd.New(csd.Config{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := deploy
				cfg.Events, cfg.TraceName = want, fmt.Sprintf("csd-%03d", i)
				if _, err := core.Deploy(dev, m, cfg); err != nil {
					t.Fatal(err)
				}
			}

			got, gotSink := newEventLog()
			f, err := New(m, Config{
				Nodes: 4, Deploy: deploy, Events: got,
				Telemetry: telemetry.NewRegistry(), Spans: telemetry.NewSpanLog(8), Trace: trace.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			wantEv, gotEv := coreEvents(t, want, wantSink), coreEvents(t, got, gotSink)
			if !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("fleet engine events differ from separate deploys\nfleet:    %+v\nseparate: %+v", gotEv, wantEv)
			}
			var deploys, findings int
			for _, ev := range gotEv {
				switch ev.Name {
				case "engine.deploy":
					deploys++
				case "engine.drc_finding":
					findings++
				}
			}
			if deploys != 4 {
				t.Fatalf("%d engine.deploy events, want 4", deploys)
			}
			if level == kernels.LevelVanilla && findings == 0 {
				t.Fatal("vanilla design emitted no engine.drc_finding events")
			}

			var table *fixed.Value
			for i, n := range f.nodes {
				proj := unsafe.SliceData(n.eng.(*core.Engine).Pipeline().InputProjection())
				if i == 0 {
					table = proj
					continue
				}
				if proj != table {
					t.Errorf("node %d holds its own input-projection table", i)
				}
			}
			if level == kernels.LevelFixedPoint && table == nil {
				t.Error("fixed-point fleet has no input-projection table")
			}
		})
	}
}

// TestFleetNewRejectsBeforeTouchingDevices: a model whose design fails the
// design-rule check under DRCEnforce is refused before any device is
// registered.
func TestFleetNewRejectsBeforeTouchingDevices(t *testing.T) {
	reg := device.NewRegistry(device.Config{})
	_, err := New(paperModel(t), Config{
		Nodes: 4, Registry: reg,
		Deploy: core.DeployConfig{Level: kernels.LevelFixedPoint, Part: fpga.KU15P},
	})
	var rej *drc.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("error = %v, want *drc.RejectError", err)
	}
	if reg.Len() != 0 {
		t.Fatalf("%d devices registered before the refusal, want 0", reg.Len())
	}
}

// BenchmarkFleetNew measures fleet set-up on the host clock: one compile
// of the paper model and four device loads, then Close.
func BenchmarkFleetNew(b *testing.B) {
	m := paperModel(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := New(m, Config{Nodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}
