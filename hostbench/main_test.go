package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// declared reads the metrics BENCHMARK.json declares, name → unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics fails unless res reports exactly the declared metrics with
// their declared units.
func checkMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		got, found := res.Metrics[name]
		switch {
		case !found:
			t.Errorf("metric %s missing", name)
		case got.Unit != unit:
			t.Errorf("metric %s in %q, declared %q", name, got.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, found := want[name]; !found {
			t.Errorf("metric %s is not declared", name)
		}
	}
}

// lastResult parses the final output line.
func lastResult(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			ok, err := run([]string{"--workload", name, "--seed", "7", "--seconds", "0.3"}, &out)
			if err != nil || !ok {
				t.Fatalf("run: ok=%v err=%v\n%s", ok, err, out.String())
			}
			res := lastResult(t, &out)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			endToEnd, _ := declared(t)
			checkMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("climbs the whole ladder")
	}
	var out bytes.Buffer
	ok, err := run([]string{"--workload", wlStream, "--seed", "3", "--seconds", "0.3", "--trace", "1"}, &out)
	if err != nil || !ok {
		t.Fatalf("run: ok=%v err=%v\n%s", ok, err, out.String())
	}
	res := lastResult(t, &out)
	_, perLayer := declared(t)
	checkMetrics(t, res, perLayer)
	if got := res.Metrics["sim_item_us"].Value; got != 2.2 {
		t.Errorf("sim_item_us = %v, want the paper deployment's 2.2", got)
	}
}

// A reference that disagrees with what the system serves must fail the run
// on every workload: one flipped verdict, and one wrong simulated timing.
func TestWrongReferenceFailsTheRun(t *testing.T) {
	flipFirst := func(ref *reference) {
		if len(ref.passes) > 0 {
			ref.passes[0].results[0].Ransomware = !ref.passes[0].results[0].Ransomware
			return
		}
		for i := range ref.results {
			ref.results[i].Probability += 1e-9
		}
	}
	tampers := map[string]func(*reference){
		"verdict": flipFirst,
		"timing":  func(ref *reference) { ref.compute++ },
	}
	for _, name := range workloadNames {
		for what, tamper := range tampers {
			t.Run(name+"/"+what, func(t *testing.T) {
				var out bytes.Buffer
				opt := options{workload: name, seed: 5, seconds: 200 * time.Millisecond}
				ok, err := execute(opt, &out, tamper)
				if err != nil {
					t.Fatal(err)
				}
				res := lastResult(t, &out)
				if ok || res.Correct || res.Failed == 0 {
					t.Fatalf("wrong reference passed: ok=%v result %+v", ok, res)
				}
			})
		}
	}
}

// A failed window must push its bucket's mean latency over any limit, not
// overflow into a small or negative figure.
func TestFailedWindowMeanIsOverAnyLimit(t *testing.T) {
	ms := meanNs([]time.Duration{time.Millisecond, failedLatency, failedLatency}) / 1e6
	if ms < float64(time.Hour/time.Millisecond) {
		t.Fatalf("mean with failed windows = %v ms, want over any limit", ms)
	}
}

func TestInputDigestFollowsSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 11, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 11, 2*time.Second)
		c, _ := generate(name, 12, 2*time.Second)
		if a.digest != b.digest {
			t.Errorf("%s: seed 11 gave digests %s and %s", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 11 and 12 share digest %s", name, a.digest)
		}
	}
}

func TestModelChecksumMismatchRefused(t *testing.T) {
	if _, err := loadModel(modelText, modelSum); err != nil {
		t.Fatalf("pinned model: %v", err)
	}
	bad := slices.Clone(modelText)
	bad[len(bad)/2] ^= 1
	if _, err := loadModel(bad, modelSum); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered weights: err = %v, want a checksum mismatch", err)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wlLive, "--seconds", "0"},
		{"--workload", wlLive, "--trace", "2"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
