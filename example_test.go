package csdinf_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/kfrida1/csdinf"
)

// trainedRun is the corpus and classifier the examples share.
type trainedRun struct {
	corpus, trainDS, testDS *csdinf.Dataset
	res                     *csdinf.TrainResult
}

// trained synthesizes a 414-window corpus of 40-call windows (3 windows per
// ransomware variant, 6 per benign source; see Appendix A of the paper) and
// trains the paper's architecture on three quarters of it. It runs once per
// test binary so that every example needing a trained classifier shares
// one; the result is a pure function of the seeds.
var trained = sync.OnceValues(func() (trainedRun, error) {
	corpus, err := csdinf.BuildDataset(csdinf.DatasetConfig{
		RansomwareCount: 228,
		BenignCount:     186,
		Window:          40,
		Stride:          20,
		Seed:            1,
	})
	if err != nil {
		return trainedRun{}, err
	}
	trainDS, testDS, err := corpus.Split(0.25, 2)
	if err != nil {
		return trainedRun{}, err
	}
	res, err := csdinf.Train(trainDS, testDS, csdinf.TrainConfig{
		Epochs:    10,
		EvalEvery: 2,
		Seed:      3,
	})
	if err != nil {
		return trainedRun{}, err
	}
	return trainedRun{corpus, trainDS, testDS, res}, nil
})

// The paper's end-to-end flow: train a ransomware classifier offline,
// deploy it onto a simulated SmartSSD, and classify sequences stored on the
// drive over the P2P path.
func Example_quickstart() {
	// 1. Synthesize a corpus and train offline (see trained above).
	run, err := trained()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d train / %d test sequences of %d API calls\n",
		len(run.trainDS.Sequences), len(run.testDS.Sequences), run.corpus.Window)
	fmt.Printf("trained %d epochs; test accuracy %.4f, F1 %.4f\n",
		run.res.EpochsRun, run.res.Final.Accuracy, run.res.Final.F1)

	// 2. Deploy to the computational storage drive: weights are quantized
	//    to scale-10⁶ fixed point and the five kernels are placed on the
	//    FPGA.
	dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := csdinf.Deploy(dev, run.res.Model, csdinf.DeployConfig{SeqLen: 40})
	if err != nil {
		log.Fatal(err)
	}
	_, _, _, perItem := eng.PerItemMicros()
	fmt.Printf("deployed: %.3f µs per sequence item on the FPGA (paper: 2.151 µs)\n", perItem)

	// 3. Classify sequences stored on the SSD over the P2P path — no host
	//    involvement on the data path.
	var off int64
	correct, n := 0, 20
	for _, s := range run.testDS.Sequences[:n] {
		if _, err := dev.StoreSequence(off, s.Items); err != nil {
			log.Fatal(err)
		}
		result, timing, err := eng.PredictStored(context.Background(), off)
		if err != nil {
			log.Fatal(err)
		}
		if result.Ransomware == s.Ransomware {
			correct++
		}
		if off == 0 {
			fmt.Printf("first classification: p=%.3f in %v (%v transfer + %v compute)\n",
				result.Probability, timing.Total(), timing.Transfer, timing.Compute)
		}
		off += int64(len(s.Items) * 4)
	}
	fmt.Printf("in-storage classification: %d/%d correct\n", correct, n)
	// Output:
	// corpus: 311 train / 103 test sequences of 40 API calls
	// trained 10 epochs; test accuracy 0.9612, F1 0.9623
	// deployed: 2.200 µs per sequence item on the FPGA (paper: 2.151 µs)
	// first classification: p=0.929 in 178.569µs (90.569µs transfer + 88µs compute)
	// in-storage classification: 19/20 correct
}

// The shape of the paper's Fig. 3: the same model deployed at each
// cumulative optimization level — Vanilla (kernel parallelization only),
// +II (PIPELINE/UNROLL/ARRAY_PARTITION), +Fixed-point — with per-kernel
// latencies and fabric utilization, and the resource wall that makes the
// fully-unrolled fixed-point design fit the Alveo U200 but not the
// SmartSSD's smaller KU15P.
func Example_optimization() {
	model, err := csdinf.NewModel(csdinf.PaperModelConfig(), 1)
	if err != nil {
		log.Fatal(err)
	}
	embed, lstmP, head := model.ParamCount()
	fmt.Printf("model: %d embedding + %d LSTM + %d head parameters over a %d-call vocabulary\n\n",
		embed, lstmP, head, csdinf.VocabSize)

	fmt.Printf("%-12s %12s %12s %12s %12s %8s %8s\n",
		"Level", "Preprocess", "Gates", "Hidden", "Total", "DSP%", "LUT%")
	for _, level := range []csdinf.OptLevel{
		csdinf.LevelVanilla, csdinf.LevelII, csdinf.LevelFixedPoint,
	} {
		dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
		if err != nil {
			log.Fatal(err)
		}
		eng, err := csdinf.Deploy(dev, model, csdinf.DeployConfig{
			Level: level,
			Part:  csdinf.AlveoU200, // the paper's experimental platform
		})
		if err != nil {
			log.Fatal(err)
		}
		pre, gates, hidden, total := eng.PerItemMicros()
		util := eng.Pipeline().Device().Utilization()
		fmt.Printf("%-12s %9.3f µs %9.5f µs %9.3f µs %9.3f µs %7.1f%% %7.1f%%\n",
			level, pre, gates, hidden, total, util.DSP*100, util.LUT*100)
	}
	fmt.Println("paper Fig. 3: Vanilla 0.740 / 5.076 / 1.651 µs," +
		" II 0.743 / 2.001 / 1.277 µs, Fixed-point 0.800 / 0.00333 / 1.348 µs")

	// The resource wall: 4 CUs × 1,280 fully-unrolled integer MACs need
	// 5,120 DSPs. The U200 has 6,840; the SmartSSD's KU15P has 1,968.
	// Mixed precision (§VI) packs the narrow gate MACs two per DSP and
	// fits the KU15P.
	for _, level := range []csdinf.OptLevel{csdinf.LevelFixedPoint, csdinf.LevelMixed} {
		dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "deploys"
		if _, err := csdinf.Deploy(dev, model, csdinf.DeployConfig{Level: level, Part: csdinf.KU15P}); err != nil {
			verdict = err.Error()
		}
		fmt.Printf("%s on the SmartSSD's KU15P: %s\n", level, verdict)
	}
	// Output:
	// model: 2224 embedding + 5248 LSTM + 33 head parameters over a 278-call vocabulary
	//
	// Level          Preprocess        Gates       Hidden        Total     DSP%     LUT%
	// Vanilla          0.740 µs   5.10333 µs     1.623 µs     7.467 µs     0.5%     0.2%
	// II               0.740 µs   1.90333 µs     1.203 µs     3.847 µs     1.4%     4.3%
	// Fixed-point      0.847 µs   0.01000 µs     1.343 µs     2.200 µs    75.0%    25.4%
	// paper Fig. 3: Vanilla 0.740 / 5.076 / 1.651 µs, II 0.743 / 2.001 / 1.277 µs, Fixed-point 0.800 / 0.00333 / 1.348 µs
	// Fixed-point on the SmartSSD's KU15P: drc: design rejected on xcku15p: 2 error finding(s), first: RES003  error kernel_gates: 4 CUs need DSP 5120, LUT 298240, FF 527360, BRAM 0, exceeding the xcku15p budget on DSP 5120/1968
	// Mixed-precision on the SmartSSD's KU15P: deploys
}

// The paper's detection experiment at reduced scale: the Table II
// families, convergence (Fig. 4), the §IV detection metrics, and the
// agreement of the deployed fixed-point CSD engine with the offline float
// model on the held-out set — the quantization fidelity the §III-D scaling
// strategy is designed to preserve.
func Example_ransomware() {
	run, err := trained()
	if err != nil {
		log.Fatal(err)
	}
	r, b := run.corpus.Counts()
	fmt.Printf("corpus: %d sequences (%d ransomware / %d benign, %.0f%% ransomware)\n",
		len(run.corpus.Sequences), r, b, run.corpus.RansomwareFraction()*100)
	for _, fam := range csdinf.Families {
		fmt.Printf("  %-12s %2d variants (self-propagating: %v)\n",
			fam.Name, fam.Variants, fam.SelfPropagates)
	}

	fmt.Println("training (Fig. 4 convergence):")
	for _, rec := range run.res.History {
		fmt.Printf("  epoch %3d: loss %.4f, test accuracy %.4f\n",
			rec.Epoch, rec.TrainLoss, rec.Test.Accuracy)
	}
	f := run.res.Final
	fmt.Println("detection metrics (paper: acc 0.9833, prec 0.9789, rec 0.9890, f1 0.9840):")
	fmt.Printf("  accuracy %.4f, precision %.4f, recall %.4f, f1 %.4f\n",
		f.Accuracy, f.Precision, f.Recall, f.F1)

	dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := csdinf.Deploy(dev, run.res.Model, csdinf.DeployConfig{
		Level:  csdinf.LevelFixedPoint,
		SeqLen: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	agree := 0
	for _, s := range run.testDS.Sequences {
		floatPred, _, err := run.res.Model.Predict(s.Items)
		if err != nil {
			log.Fatal(err)
		}
		fixedRes, _, err := eng.Predict(context.Background(), s.Items)
		if err != nil {
			log.Fatal(err)
		}
		if fixedRes.Ransomware == floatPred {
			agree++
		}
	}
	fmt.Printf("fixed-point CSD engine agrees with the offline float model on %d/%d held-out sequences\n",
		agree, len(run.testDS.Sequences))
	// Output:
	// corpus: 414 sequences (228 ransomware / 186 benign, 55% ransomware)
	//   Ryuk          5 variants (self-propagating: true)
	//   Lockbit       6 variants (self-propagating: true)
	//   Teslacrypt   10 variants (self-propagating: false)
	//   Virlock      11 variants (self-propagating: false)
	//   Cryptowall    8 variants (self-propagating: false)
	//   Cerber        9 variants (self-propagating: false)
	//   Wannacry      7 variants (self-propagating: true)
	//   Locky         6 variants (self-propagating: false)
	//   Chimera       9 variants (self-propagating: false)
	//   BadRabbit     5 variants (self-propagating: true)
	// training (Fig. 4 convergence):
	//   epoch   2: loss 0.6239, test accuracy 0.8932
	//   epoch   4: loss 0.3778, test accuracy 0.8835
	//   epoch   6: loss 0.3339, test accuracy 0.8835
	//   epoch   8: loss 0.2876, test accuracy 0.8932
	//   epoch  10: loss 0.2460, test accuracy 0.9612
	// detection metrics (paper: acc 0.9833, prec 0.9789, rec 0.9890, f1 0.9840):
	//   accuracy 0.9612, precision 0.9623, recall 0.9623, f1 0.9623
	// fixed-point CSD engine agrees with the offline float model on 103/103 held-out sequences
}

// The paper's deployment scenario: the host's live API-call stream feeds
// the in-storage detector, which keeps the sliding window, classifies
// every full window next to the data it protects, and quarantines writes
// the moment a Wannacry infection is confirmed — before the encryption
// loop can finish.
func Example_streaming() {
	run, err := trained()
	if err != nil {
		log.Fatal(err)
	}
	dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := csdinf.Deploy(dev, run.res.Model, csdinf.DeployConfig{SeqLen: 40})
	if err != nil {
		log.Fatal(err)
	}

	mitigated := false
	det, err := csdinf.NewDetector(eng, csdinf.DetectorConfig{
		Stride:        20,
		AlertsToBlock: 2, // one confirmation window before quarantine
		OnBlock: func(e csdinf.DetectorEvent) {
			mitigated = true
			dev.SSD().Quarantine(true) // in-storage mitigation: block all writes
			fmt.Printf(">>> call %d: WRITE QUARANTINE ENGAGED (p=%.3f) <<<\n",
				e.CallIndex, e.Probability)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A user working normally, until a Wannacry variant detonates.
	benign, err := csdinf.DesktopTrace(800, 42)
	if err != nil {
		log.Fatal(err)
	}
	infection, err := csdinf.RansomwareTrace("Wannacry", 3, 3000, 43)
	if err != nil {
		log.Fatal(err)
	}
	stream := append(append([]int{}, benign...), infection...)
	infectionStart := int64(len(benign))
	fmt.Printf("replaying %d API calls (infection begins at call %d)\n",
		len(stream), infectionStart)

	for _, call := range stream {
		ev, err := det.Observe(context.Background(), call)
		if errors.Is(err, csdinf.ErrStreamBlocked) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if ev != nil && ev.Action != csdinf.ActionNone {
			fmt.Printf("call %5d: p=%.3f %s\n", ev.CallIndex, ev.Probability, ev.Action)
		}
	}

	s := det.Stats()
	fmt.Printf("%d calls observed, %d windows classified, %d alerts\n",
		s.CallsObserved, s.WindowsEvaluated, s.Alerts)
	if !mitigated {
		log.Fatal("infection completed without mitigation")
	}
	latency := s.CallsObserved - infectionStart
	fmt.Printf("mitigation fired %d calls into the infection (%.1f%% of the %d-call trace)\n",
		latency, 100*float64(latency)/float64(len(infection)), len(infection))

	// The quarantine holds at the device level: encryption writes now fail
	// inside the drive.
	if _, err := dev.SSD().Write(0, []byte("ciphertext")); err != nil {
		fmt.Printf("ransomware write attempt rejected by the drive: %v\n", err)
	}
	// Output:
	// replaying 3800 API calls (infection begins at call 800)
	// call   939: p=0.916 alert
	// >>> call 959: WRITE QUARANTINE ENGAGED (p=0.924) <<<
	// call   959: p=0.924 block
	// 960 calls observed, 47 windows classified, 2 alerts
	// mitigation fired 160 calls into the infection (5.3% of the 3000-call trace)
	// ransomware write attempt rejected by the drive: ssd: write quarantine engaged
}

// The deployment story of §I/§II/§VI: a CTI-driven maintenance loop
// retrains on newly observed strains and hot-swaps the model under a live
// detection stream ("the FPGA-based model is compiled once and can be
// updated at the operator's discretion", §III-A), and a fleet serves the
// model across several SmartSSDs in one node.
func Example_datacenter() {
	run, err := trained()
	if err != nil {
		log.Fatal(err)
	}
	dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
	if err != nil {
		log.Fatal(err)
	}
	// The updater trains its own first generation on the shared corpus; a
	// narrower model keeps the two training runs short.
	updater, gen1, err := csdinf.NewUpdater(run.corpus, csdinf.UpdaterConfig{
		Device: dev,
		Deploy: csdinf.DeployConfig{SeqLen: 40},
		Train: csdinf.TrainConfig{
			Epochs: 10, Seed: 2, EmbedDim: 6, HiddenSize: 12, TargetAccuracy: 0.97,
		},
		Stride: 20,
		Seed:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d deployed: test accuracy %.4f on %d sequences\n",
		gen1.Generation, gen1.Final.Accuracy, gen1.CorpusSize)

	// A live detector runs against the hot-swappable engine.
	det, err := csdinf.NewDetector(updater.Engine(), csdinf.DetectorConfig{Stride: 20, AlertsToBlock: 1})
	if err != nil {
		log.Fatal(err)
	}

	// The CTI feed delivers analysis reports of a freshly observed strain
	// (a new Lockbit build detonated in the sandbox farm).
	var reports []*csdinf.AnalysisReport
	for v := 0; v < 3; v++ {
		trace, err := csdinf.RansomwareTrace("Lockbit", v, 400, int64(50+v))
		if err != nil {
			log.Fatal(err)
		}
		r, err := csdinf.ReportFromTrace(fmt.Sprintf("lockbit_2024_%d.exe", v), "Lockbit", 100+v, trace)
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, r)
	}
	gen2, err := updater.Ingest(reports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d deployed: +%d sequences (corpus %d), accuracy %.4f\n",
		gen2.Generation, gen2.NewSequences, gen2.CorpusSize, gen2.Final.Accuracy)

	// The detector kept running across the swap; it still fires.
	infection, err := csdinf.RansomwareTrace("Lockbit", 2, 2500, 99)
	if err != nil {
		log.Fatal(err)
	}
	for _, call := range infection {
		if _, err := det.Observe(context.Background(), call); err != nil {
			break // mitigation fired
		}
	}
	fmt.Printf("post-swap detection: blocked=%v after %d windows\n",
		det.Blocked(), det.Stats().WindowsEvaluated)

	// Scale-out: the same model served across a 4-CSD node. Each window
	// carries its tenant, and consistent hashing places every tenant on
	// one device, so the split of work does not depend on goroutine order.
	fl, err := csdinf.NewFleet(updater.Model(), csdinf.FleetConfig{
		Nodes:  4,
		Block:  true,
		Deploy: csdinf.DeployConfig{SeqLen: 40},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fl.Close()
	batch := make([][]int, 64)
	for i := range batch {
		if batch[i], err = csdinf.BenignTrace(csdinf.BenignApps[i%len(csdinf.BenignApps)], 40, int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for i, w := range batch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := csdinf.WithTenant(context.Background(), fmt.Sprintf("tenant-%02d", i))
			_, _, errs[i] = fl.Predict(ctx, w)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
	var makespan, total time.Duration
	for _, st := range fl.Stats() {
		total += st.Serve.BusyTime
		makespan = max(makespan, st.Serve.BusyTime)
	}
	fmt.Printf("%d-sequence batch across %d devices: makespan %v (total device time %v)\n",
		len(batch), fl.Nodes(), makespan, total)
	fmt.Printf("node throughput: %.0f sequences/second\n", float64(len(batch))/makespan.Seconds())
	// Output:
	// generation 1 deployed: test accuracy 0.9024 on 414 sequences
	// generation 2 deployed: +57 sequences (corpus 471), accuracy 0.9043
	// post-swap detection: blocked=true after 5 windows
	// 64-sequence batch across 4 devices: makespan 1.64076ms (total device time 4.77312ms)
	// node throughput: 39006 sequences/second
}
