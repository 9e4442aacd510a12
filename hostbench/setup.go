package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// The pinned paper model: trained once with
//
//	ransomtrain -out paper-model.txt -epochs 40 -seed 1 -target 0.97
//
// on the synthesized 1/10-scale corpus (1334 ransomware + 1566 benign
// sequences, window 100). Early stopping at 0.97 test accuracy ended
// training after epoch 3 (TP=274 FP=15 TN=289 FN=2). Nothing trains at
// benchmark time, so set-up cost and detection quality stay fixed.
var (
	//go:embed model/paper-model.txt
	modelText []byte
	//go:embed model/paper-model.txt.sha256
	modelSum string
)

// fleetNodes is the simulated device count every workload runs on.
const fleetNodes = 4

// loadModel verifies the pinned weights against their checked-in SHA-256
// and parses them in the host-initialization text format.
func loadModel(text []byte, sumLine string) (*lstm.Model, error) {
	fields := strings.Fields(sumLine)
	if len(fields) == 0 {
		return nil, fmt.Errorf("model checksum file is empty")
	}
	got := sha256.Sum256(text)
	if hex.EncodeToString(got[:]) != fields[0] {
		return nil, fmt.Errorf("model checksum mismatch: have %x, pinned %s", got, fields[0])
	}
	m, err := lstm.ReadText(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("read pinned model: %w", err)
	}
	return m, nil
}

// wiring is the observability stack csdload attaches to its fleet:
// telemetry registry, span log, event log, tracer, continuous profiler and
// incident recorder. A nil *wiring means a bare fleet.
type wiring struct {
	reg       *telemetry.Registry
	spans     *telemetry.SpanLog
	events    *eventlog.Logger
	tracer    *trace.Tracer
	profiler  *prof.Profiler
	incidents *incident.Recorder
}

func newWiring() (*wiring, error) {
	w := &wiring{
		reg:    telemetry.NewRegistry(),
		spans:  telemetry.NewSpanLog(32),
		events: eventlog.New(eventlog.Config{}),
		tracer: trace.New(),
	}
	var err error
	w.profiler, err = prof.New(prof.Config{Telemetry: w.reg, Events: w.events})
	if err != nil {
		w.events.Close()
		return nil, err
	}
	w.incidents, err = incident.NewRecorder(incident.Config{Events: w.events})
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *wiring) close() {
	if w == nil {
		return
	}
	w.profiler.Close()
	w.events.Close()
}

// bench is one built system under test: the fleet and whatever
// observability it carries.
type bench struct {
	fl   *fleet.Fleet
	wire *wiring
	// reg is the telemetry registry the fleet reports into (nil when bare).
	reg *telemetry.Registry
}

// close stops the fleet and its observability; it may be called again.
func (b *bench) close() {
	if b == nil || b.fl == nil {
		return
	}
	b.fl.Close()
	b.wire.close()
	b.fl, b.wire = nil, nil
}

// buildFleet deploys the model onto a fresh 4-device fleet. wired attaches
// the full csdload observability stack; reg alone attaches only a
// telemetry registry (the traced run uses it to read queue waits off a
// fleet that is otherwise bare).
func buildFleet(m *lstm.Model, wired bool, reg *telemetry.Registry) (*bench, error) {
	b := &bench{reg: reg}
	cfg := fleet.Config{Nodes: fleetNodes, Telemetry: reg}
	if wired {
		w, err := newWiring()
		if err != nil {
			return nil, err
		}
		b.wire, b.reg = w, w.reg
		cfg.Telemetry = w.reg
		cfg.Spans = w.spans
		cfg.Events = w.events
		cfg.Incidents = w.incidents
		cfg.Trace = w.tracer
		cfg.Prof = w.profiler
	}
	fl, err := fleet.New(m, cfg)
	if err != nil {
		b.wire.close()
		return nil, fmt.Errorf("build fleet: %w", err)
	}
	b.fl = fl
	return b, nil
}

// provision mirrors the stored sequences onto every device's SSD at
// offset i × seqBytes, the background-scan replication deployment.
func provision(fl *fleet.Fleet, seqs [][]int) error {
	for d := 0; d < fl.Nodes(); d++ {
		dev := fl.Device(d)
		for i, s := range seqs {
			if _, err := dev.StoreSequence(storedOffset(i), s); err != nil {
				return fmt.Errorf("provision device %d sequence %d: %w", d, i, err)
			}
		}
	}
	return nil
}

// setupOnce is the timed set-up: load the pinned weights, deploy the fleet
// (including the design-rule and overflow proofs), provision the SSDs.
func setupOnce(w *workload, traced bool) (*lstm.Model, *bench, time.Duration, error) {
	start := time.Now()
	m, err := loadModel(modelText, modelSum)
	if err != nil {
		return nil, nil, 0, err
	}
	var reg *telemetry.Registry
	if traced && !w.wired {
		reg = telemetry.NewRegistry()
	}
	b, err := buildFleet(m, w.wired, reg)
	if err != nil {
		return nil, nil, 0, err
	}
	if w.name == wlScan {
		if err := provision(b.fl, w.windows); err != nil {
			b.close()
			return nil, nil, 0, err
		}
	}
	return m, b, time.Since(start), nil
}
