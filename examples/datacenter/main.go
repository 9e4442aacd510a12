// Datacenter operations: the deployment story of §I/§II/§VI. A node hosts
// several SmartSSDs sharing one classifier; the fleet fans classification
// work out across devices (the paper's "installation of multiple devices
// within a single node"), while a CTI-driven maintenance loop retrains on
// newly observed strains and hot-swaps the model under a live detection
// stream — "the FPGA-based model is compiled once and can be updated at the
// operator's discretion" (§III-A).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/kfrida1/csdinf"
)

func main() {
	// Base corpus and initial deployment through the CTI updater.
	base, err := csdinf.BuildDataset(csdinf.DatasetConfig{
		RansomwareCount: 667, BenignCount: 783, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	dev, err := csdinf.NewSmartSSD(csdinf.CSDConfig{})
	if err != nil {
		log.Fatal(err)
	}
	updater, gen1, err := csdinf.NewUpdater(base, csdinf.UpdaterConfig{
		Device: dev,
		Train:  csdinf.TrainConfig{Epochs: 15, Seed: 2, TargetAccuracy: 0.97},
		Seed:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d deployed: test accuracy %.4f on %d sequences\n",
		gen1.Generation, gen1.Final.Accuracy, gen1.CorpusSize)

	// A live detector runs against the hot-swappable engine.
	det, err := csdinf.NewDetector(updater.Engine(), csdinf.DetectorConfig{AlertsToBlock: 1})
	if err != nil {
		log.Fatal(err)
	}

	// CTI feed delivers analysis reports of a freshly observed strain
	// (a new Lockbit build detonated in the sandbox farm).
	fmt.Println("\nCTI feed: 3 new Lockbit samples observed; retraining...")
	var reports []*csdinf.AnalysisReport
	for v := 0; v < 3; v++ {
		trace, err := csdinf.RansomwareTrace("Lockbit", v, 3000, int64(50+v))
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

	// The detector kept running across the swap; verify it still fires.
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

	// Scale-out: the same model served across a 4-CSD node. Each untenanted
	// window is placed on the device with the least simulated outstanding
	// work.
	fmt.Println("\nscaling out to a 4-CSD node...")
	fl, err := csdinf.NewFleet(updater.Model(), csdinf.FleetConfig{Nodes: 4, Block: true})
	if err != nil {
		log.Fatal(err)
	}
	batch := make([][]int, 64)
	for i := range batch {
		w, err := csdinf.BenignTrace(csdinf.BenignApps[i%len(csdinf.BenignApps)], 100, int64(i))
		if err != nil {
			log.Fatal(err)
		}
		batch[i] = w
	}
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for i, w := range batch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = fl.Predict(context.Background(), w)
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
	fmt.Printf("64-sequence batch across %d devices: makespan %v (total device time %v)\n",
		fl.Nodes(), makespan, total)
	fmt.Printf("node throughput: %.0f sequences/second\n", float64(len(batch))/makespan.Seconds())
	fl.Close()
}
