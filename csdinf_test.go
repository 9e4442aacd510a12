package csdinf

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
)

// TestEndToEndPipeline exercises the full public API exactly as the README
// quickstart does: build corpus → train → deploy to a CSD → classify stored
// sequences → stream-detect an infection.
func TestEndToEndPipeline(t *testing.T) {
	// Scaled-down corpus so the test stays fast.
	ds, err := BuildDataset(DatasetConfig{
		RansomwareCount: 228, // 3 windows per variant
		BenignCount:     186, // 6 per benign source
		Window:          40,
		Stride:          20,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainDS, testDS, err := ds.Split(0.25, 2)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Train(trainDS, testDS, TrainConfig{
		Epochs:     10,
		BatchSize:  16,
		Seed:       3,
		EmbedDim:   6,
		HiddenSize: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Accuracy < 0.85 {
		t.Fatalf("accuracy = %v", res.Final.Accuracy)
	}

	// Weight round trip through the host-init text format.
	var buf bytes.Buffer
	if err := SaveWeights(res.Model, &buf); err != nil {
		t.Fatal(err)
	}
	model, err := LoadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Deploy to a CSD and classify sequences stored on the SSD.
	dev, err := NewSmartSSD(CSDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Deploy(dev, model, DeployConfig{Level: LevelFixedPoint, SeqLen: 40})
	if err != nil {
		t.Fatal(err)
	}

	correct, total := 0, 0
	var off int64
	for _, s := range testDS.Sequences[:40] {
		if _, err := dev.StoreSequence(off, s.Items); err != nil {
			t.Fatal(err)
		}
		result, timing, err := eng.PredictStored(context.Background(), off)
		if err != nil {
			t.Fatal(err)
		}
		if timing.Total() <= 0 {
			t.Fatal("no time charged")
		}
		if result.Ransomware == s.Ransomware {
			correct++
		}
		total++
		off += int64(len(s.Items) * 4)
	}
	if frac := float64(correct) / float64(total); frac < 0.8 {
		t.Fatalf("stored-classification agreement = %v", frac)
	}

	// Streaming detection over a live ransomware trace.
	var ransom *Sequence
	for i := range testDS.Sequences {
		if testDS.Sequences[i].Ransomware {
			ransom = &testDS.Sequences[i]
			break
		}
	}
	if ransom == nil {
		t.Fatal("no ransomware sequence in test split")
	}
	det, err := NewDetector(eng, DetectorConfig{Stride: 10, AlertsToBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range ransom.Items {
		if _, err := det.Observe(context.Background(), call); err != nil {
			break // ErrBlocked is success here
		}
	}
	// Detection isn't guaranteed for every window, but the detector must
	// have evaluated at least one.
	if det.Stats().WindowsEvaluated == 0 {
		t.Fatal("detector never classified a window")
	}
}

func TestPaperModelConfigCounts(t *testing.T) {
	m, err := NewModel(PaperModelConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	embed, lstmP, head := m.ParamCount()
	if embed+lstmP != 7472 || head != 33 {
		t.Fatalf("params = %d + %d, want 7472 + 33", embed+lstmP, head)
	}
	if VocabSize != 278 {
		t.Fatalf("VocabSize = %d", VocabSize)
	}
}

func TestAPICatalogPassthrough(t *testing.T) {
	id, err := APIID("CryptEncrypt")
	if err != nil {
		t.Fatal(err)
	}
	name, err := APIName(id)
	if err != nil || name != "CryptEncrypt" {
		t.Fatalf("round trip = %q, %v", name, err)
	}
	if _, err := APIID("NotAnAPI"); err == nil {
		t.Error("unknown API accepted")
	}
}

func TestFamiliesExported(t *testing.T) {
	if len(Families) != 10 {
		t.Fatalf("families = %d", len(Families))
	}
	total := 0
	for _, f := range Families {
		total += f.Variants
	}
	if total != 76 {
		t.Fatalf("variants = %d", total)
	}
}

func TestDatasetCSVThroughFacade(t *testing.T) {
	ds, err := BuildDataset(DatasetConfig{
		RansomwareCount: 76, BenignCount: 31, Window: 20, Stride: 20, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDatasetCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sequences) != len(ds.Sequences) {
		t.Fatalf("round trip rows = %d, want %d", len(got.Sequences), len(ds.Sequences))
	}
}

func TestPartsExported(t *testing.T) {
	if KU15P.Name != "xcku15p" || AlveoU200.Name != "xcu200" {
		t.Fatal("FPGA parts misconfigured")
	}
	if LevelVanilla >= LevelII || LevelII >= LevelFixedPoint {
		t.Fatal("level ordering broken")
	}
	if ActionNone == ActionAlert || ActionAlert == ActionBlock {
		t.Fatal("action constants collide")
	}
	if Version == "" {
		t.Fatal("empty version")
	}
}

func TestBuildFPGABinaryFacade(t *testing.T) {
	bin, err := BuildFPGABinary(LevelFixedPoint, AlveoU200)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin.Objects) != 3 {
		t.Fatalf("kernels = %d, want 3", len(bin.Objects))
	}
	if _, err := BuildFPGABinary(LevelFixedPoint, KU15P); err == nil {
		t.Fatal("fixed-point on KU15P should fail to link")
	}
	if _, err := BuildFPGABinary(LevelMixed, KU15P); err != nil {
		t.Fatalf("mixed on KU15P failed: %v", err)
	}
}

func TestTraceGenerationFacade(t *testing.T) {
	trace, err := RansomwareTrace("Wannacry", 0, 500, 1)
	if err != nil || len(trace) != 500 {
		t.Fatalf("RansomwareTrace: %d items, %v", len(trace), err)
	}
	if _, err := RansomwareTrace("NotAFamily", 0, 10, 1); err == nil {
		t.Error("unknown family accepted")
	}
	bt, err := BenignTrace(BenignApps[0], 200, 2)
	if err != nil || len(bt) != 200 {
		t.Fatalf("BenignTrace: %d items, %v", len(bt), err)
	}
	dt, err := DesktopTrace(100, 3)
	if err != nil || len(dt) != 100 {
		t.Fatalf("DesktopTrace: %d items, %v", len(dt), err)
	}
}

func TestReportFacade(t *testing.T) {
	trace, err := RansomwareTrace("Cerber", 0, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ReportFromTrace("cerber.exe", "Cerber", 0, trace)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	items, err := got.Trace()
	if err != nil || len(items) != 300 {
		t.Fatalf("report trace: %d items, %v", len(items), err)
	}
	ds, err := DatasetFromTraces([]LabeledTrace{
		{Items: items, Ransomware: true, Source: "cerber.exe"},
	}, 100, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Sequences) != 9 { // (300-100)/25+1
		t.Fatalf("windows = %d, want 9", len(ds.Sequences))
	}
}

func TestMitigationQuarantineFacade(t *testing.T) {
	dev, err := NewSmartSSD(CSDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.SSD().Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	dev.SSD().Quarantine(true)
	if _, err := dev.SSD().Write(0, []byte{2}); err == nil {
		t.Fatal("write under quarantine succeeded")
	}
}

func TestDetectorMuxFacade(t *testing.T) {
	ds, err := BuildDataset(DatasetConfig{
		RansomwareCount: 228, BenignCount: 186, Window: 40, Stride: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainDS, testDS, err := ds.Split(0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(trainDS, testDS, TrainConfig{
		Epochs: 8, Seed: 3, EmbedDim: 6, HiddenSize: 12, TargetAccuracy: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewSmartSSD(CSDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Deploy(dev, res.Model, DeployConfig{SeqLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	mux, err := NewDetectorMux(eng, DetectorMuxConfig{
		Detector: DetectorConfig{Stride: 10, AlertsToBlock: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two interleaved processes: pid 7 infected, pid 3 benign desktop.
	infection, err := RansomwareTrace("Cerber", 0, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	desktop, err := DesktopTrace(400, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range infection {
		if _, err := mux.Observe(context.Background(), 3, desktop[i]); err != nil {
			break
		}
		if _, err := mux.Observe(context.Background(), 7, infection[i]); err != nil {
			break
		}
	}
	// AUC through the facade.
	preds, err := Score(res.Model, testDS)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := AUC(preds)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.9 {
		t.Fatalf("AUC = %v", auc)
	}
}

// TestCorpusDeterminismGolden guards the seeded generation pipeline: the
// same seed must always produce the same corpus (a silent generator change
// would invalidate every recorded experiment).
func TestCorpusDeterminismGolden(t *testing.T) {
	ds, err := BuildDataset(DatasetConfig{
		RansomwareCount: 76, BenignCount: 31, Window: 25, Stride: 25, Seed: 12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, s := range ds.Sequences {
		for _, it := range s.Items {
			h.Write([]byte{byte(it), byte(it >> 8)})
		}
		if s.Ransomware {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	// Golden value recorded at v1.0.0; update deliberately (and re-record
	// EXPERIMENTS.md) if the generator changes.
	const golden = uint64(0xc755d7c09e9d179d)
	if got := h.Sum64(); got != golden {
		t.Fatalf("corpus hash = %#x, want %#x — the seeded generator changed; "+
			"if intentional, re-record EXPERIMENTS.md and update this golden", got, golden)
	}
}

// TestServerFacade exercises the concurrent serving layer end to end
// through the public API: deploy to several devices, push live work from
// concurrent callers, and close.
func TestServerFacade(t *testing.T) {
	cfg := PaperModelConfig()
	cfg.EmbedDim, cfg.HiddenSize = 4, 8 // scaled down to keep the test fast
	m, err := NewModel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFleet(m, FleetConfig{
		Nodes:  2,
		Block:  true,
		Deploy: DeployConfig{SeqLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 2 || s.SeqLen() != 16 {
		t.Fatalf("Nodes = %d, SeqLen = %d", s.Nodes(), s.SeqLen())
	}
	seq := make([]int, 16)
	for i := range seq {
		seq[i] = i + 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := s.Predict(context.Background(), seq); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	var jobs int64
	for _, st := range s.Stats() {
		jobs += st.Serve.Jobs
	}
	if jobs != 32 {
		t.Fatalf("jobs = %d, want 32", jobs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), seq); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("post-close error = %v, want ErrFleetClosed", err)
	}
}

// TestObservabilityFacade exercises the event-log and incident re-exports:
// a logger with a file sink, an incident recorder fed synthetic window
// samples, and the forensic report output.
func TestObservabilityFacade(t *testing.T) {
	events := NewEventLogger(EventLogConfig{MinLevel: EventLevelDebug})
	path := t.TempDir() + "/events.jsonl"
	sink, err := NewEventFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	events.Attach("file", sink, 0)

	rec, err := NewIncidentRecorder(IncidentConfig{
		Generation: func() int64 { return 7 },
		Events:     events,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Window(WindowSample{PID: 42, CallIndex: 100, Probability: 0.2, Action: ActionNone, Device: "0"})
	rec.Window(WindowSample{PID: 42, CallIndex: 125, Probability: 0.9, Action: ActionBlock, Job: 5, Device: "0"})

	incs := rec.Snapshot()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	inc := incs[0]
	if inc.PID != 42 || inc.State != "closed" || inc.CloseReason != "blocked" {
		t.Fatalf("incident = %+v", inc)
	}
	if inc.ModelGeneration != 7 || len(inc.Trajectory) != 2 {
		t.Fatalf("generation %d, trajectory %d", inc.ModelGeneration, len(inc.Trajectory))
	}
	if _, err := rec.WriteReports(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	var stats []EventSinkStats = events.SinkStats()
	if len(stats) != 1 || stats[0].Written == 0 || stats[0].Dropped != 0 {
		t.Fatalf("sink stats = %+v", stats)
	}
}

// TestQualityFacade exercises the detection-quality surface end to end
// through the public API: scorecard construction, label stamping, SLO
// feedback into recall/false-positive objectives, and reference round-trip.
func TestQualityFacade(t *testing.T) {
	ev, err := NewSLOEvaluator(SLOConfig{Objectives: []SLObjective{
		{Name: "recall", Kind: SLORecall, Target: 0.5, Window: 60_000_000_000},
		{Name: "fp", Kind: SLOFalsePositive, Target: 0.5, Window: 60_000_000_000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	card, err := NewQualityScorecard(QualityConfig{SLO: ev.Quality})
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithQualityLabel(context.Background(), QualityLabel{Truth: true, Family: "LockBit"})
	if l, ok := QualityLabelFrom(ctx); !ok || !l.Truth || l.Family != "lockbit" {
		t.Fatalf("label round-trip = %+v, %v", l, ok)
	}
	card.Observe(ctx, QualityVerdict{PID: 1, Probability: 0.9, Flagged: true})
	card.Observe(WithQualityLabel(context.Background(), QualityLabel{Family: "benign"}),
		QualityVerdict{PID: 2, Probability: 0.1})

	var snap QualitySnapshot = card.Snapshot()
	if snap.Total.TP != 1 || snap.Total.TN != 1 {
		t.Fatalf("confusion %+v, want tp=1 tn=1", snap.Total)
	}
	for _, o := range ev.Evaluate().Objectives {
		if o.Good != 1 || o.Bad != 0 {
			t.Errorf("objective %s counts %d/%d, want 1/0", o.Name, o.Good, o.Bad)
		}
	}

	ref, err := NewQualityReference("facade", []float64{0.1, 0.2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ref.json"
	if err := WriteQualityReference(path, ref); err != nil {
		t.Fatal(err)
	}
	back, err := LoadQualityReference(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != ref.Name || back.Samples != ref.Samples {
		t.Fatalf("reference round-trip lost identity: %+v vs %+v", back, ref)
	}
}
