package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// gateCase edits one document of a copy of the checked-in baselines and
// states what the gate must then say.
type gateCase struct {
	name string
	// file is "BENCH_<source>.json" or "baseline-<source>.json"; empty
	// leaves every document as checked in.
	file string
	// edit changes the decoded document; nil deletes the file.
	edit func(doc map[string]any)
	// fail is a substring of the gate's error; empty means the gate passes.
	fail string
}

// sources lists the manifest's sources in first-use order.
func sources() []string {
	var out []string
	for _, r := range manifest {
		if !slices.Contains(out, r.source) {
			out = append(out, r.source)
		}
	}
	return out
}

// gateWith runs the gate over one directory holding each checked-in
// baseline twice, as baseline-<source>.json and as BENCH_<source>.json, after
// c's edit, and returns the gate's output.
func gateWith(t *testing.T, c gateCase) (string, error) {
	t.Helper()
	dir := t.TempDir()
	for _, source := range sources() {
		data, err := os.ReadFile(filepath.Join("..", "..", "bench-results", "baseline-"+source+".json"))
		if err != nil {
			t.Fatalf("checked-in baseline: %v", err)
		}
		for _, name := range []string{"baseline-" + source + ".json", "BENCH_" + source + ".json"} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.file != "" {
		path := filepath.Join(dir, c.file)
		if c.edit == nil {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else {
			doc, err := readDoc(path)
			if err != nil {
				t.Fatal(err)
			}
			c.edit(doc)
			data, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out strings.Builder
	err := run([]string{"-fresh", dir, "-baselines", dir}, &out)
	return out.String(), err
}

func runCases(t *testing.T, cases ...gateCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := gateWith(t, c)
			switch {
			case c.fail == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case c.fail != "" && err == nil:
				t.Fatalf("gate passed, want a failure naming %q", c.fail)
			case c.fail != "" && !strings.Contains(err.Error(), c.fail):
				t.Fatalf("gate error does not name %q: %v", c.fail, err)
			}
		})
	}
}

// at returns an edit that replaces the value at path (dot-separated keys
// and slice indices) with f of it; f returning deleted removes a map key.
func at(path string, f func(v any) any) func(map[string]any) {
	return func(doc map[string]any) {
		keys := strings.Split(path, ".")
		var v any = doc
		for _, k := range keys[:len(keys)-1] {
			v = child(v, k)
		}
		last := keys[len(keys)-1]
		switch c := v.(type) {
		case map[string]any:
			if nv := f(c[last]); nv == any(deleted{}) {
				delete(c, last)
			} else {
				c[last] = nv
			}
		case []any:
			i, _ := strconv.Atoi(last)
			c[i] = f(c[i])
		}
	}
}

type deleted struct{}

func child(v any, key string) any {
	switch c := v.(type) {
	case map[string]any:
		return c[key]
	case []any:
		i, _ := strconv.Atoi(key)
		return c[i]
	}
	return nil
}

func nextUp(v any) any   { return math.Nextafter(v.(float64), math.Inf(1)) }
func nextDown(v any) any { return math.Nextafter(v.(float64), math.Inf(-1)) }
func plus(d float64) func(any) any {
	return func(v any) any { return v.(float64) + d }
}
func times(k float64) func(any) any {
	return func(v any) any { return v.(float64) * k }
}
func to(x any) func(any) any { return func(any) any { return x } }
func drop(any) any           { return deleted{} }
func truncate(n int) func(any) any {
	return func(v any) any { return v.([]any)[:n] }
}

// TestCheckedInBaselineSelfComparison pins that the committed baselines
// pass against themselves: every manifest row resolves on both sides and
// reports ok.
func TestCheckedInBaselineSelfComparison(t *testing.T) {
	out, err := gateWith(t, gateCase{})
	if err != nil {
		t.Fatalf("baselines do not pass against themselves: %v", err)
	}
	if n := strings.Count(out, " ok"); n != len(manifest) {
		t.Fatalf("%d rows ok, want all %d:\n%s", n, len(manifest), out)
	}
}

// TestEveryBaselineIsGated pins the manifest's sources to the checked-in
// baseline files, both ways: a baseline-<source>.json with no manifest row
// would sit there ungated, and a manifest source with no baseline could
// never pass.
func TestEveryBaselineIsGated(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "bench-results", "baseline-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, p := range paths {
		files = append(files, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "baseline-"), ".json"))
	}
	gated := sources()
	for _, source := range files {
		if !slices.Contains(gated, source) {
			t.Errorf("baseline-%s.json has no manifest row", source)
		}
	}
	for _, source := range gated {
		if !slices.Contains(files, source) {
			t.Errorf("manifest source %q has no baseline-%s.json", source, source)
		}
	}
}

// TestEveryRowCatchesPerturbation walks the manifest: for each row it
// perturbs the first leaf of the row's subtree in the fresh document. An
// exact row must fail on a one-ulp move; a max row must pass at exactly
// baseline × (1 + tolerance) and fail one ulp above it.
func TestEveryRowCatchesPerturbation(t *testing.T) {
	base := map[string]map[string]any{}
	for _, source := range sources() {
		doc, err := readDoc(filepath.Join("..", "..", "bench-results", "baseline-"+source+".json"))
		if err != nil {
			t.Fatal(err)
		}
		base[source] = doc
	}
	for _, r := range manifest {
		v, err := lookup(base[r.source], r.path)
		if err != nil {
			t.Fatal(err)
		}
		leaf := r.path
		for {
			switch c := v.(type) {
			case map[string]any:
				k := slices.Sorted(maps.Keys(c))[0]
				leaf, v = leaf+"."+k, c[k]
				continue
			case []any:
				leaf, v = leaf+".0", c[0]
				continue
			}
			break
		}
		file := "BENCH_" + r.source + ".json"
		if r.kind == atMost {
			limit := v.(float64) * (1 + r.tolerance)
			runCases(t,
				gateCase{r.path + " at limit", file, at(leaf, to(limit)), ""},
				gateCase{r.path + " over limit", file, at(leaf, to(math.Nextafter(limit, math.Inf(1)))), r.path},
			)
			continue
		}
		var moved any
		switch x := v.(type) {
		case float64:
			moved = math.Nextafter(x, math.Inf(1))
		case bool:
			moved = !x
		case string:
			moved = x + "x"
		default:
			t.Fatalf("%s: unexpected leaf %T", leaf, v)
		}
		runCases(t, gateCase{leaf + " moved", file, at(leaf, to(moved)), r.path})
	}
}

// TestWithinTolerancePasses: Table I's gated rows are exact, so only its
// ungated fields may move.
func TestWithinTolerancePasses(t *testing.T) {
	runCases(t,
		gateCase{"no trace profile", "BENCH_table1.json", at("result.trace_profile", drop), ""},
	)
}

func TestThroughputRegressionFails(t *testing.T) {
	runCases(t, gateCase{"fpga_items_per_second one ulp lower", "BENCH_table1.json",
		at("result.fpga_items_per_second", nextDown), "fpga_items_per_second"})
}

// TestLatencyRegressionFails: a one-ulp move of a simulated per-item
// latency fails the gate, in either direction.
func TestLatencyRegressionFails(t *testing.T) {
	runCases(t,
		gateCase{"FPGA MeanUS one ulp up", "BENCH_table1.json",
			at("result.Rows.0.MeanUS", nextUp), "result.Rows[0].MeanUS"},
		gateCase{"FPGA MeanUS one ulp down", "BENCH_table1.json",
			at("result.Rows.0.MeanUS", nextDown), "result.Rows[0].MeanUS"},
		gateCase{"GPU MeanUS one ulp up", "BENCH_table1.json",
			at("result.Rows.2.MeanUS", nextUp), "result.Rows[2].MeanUS"},
	)
}

func TestMissingPlatformFails(t *testing.T) {
	runCases(t, gateCase{"GPU row dropped", "BENCH_table1.json",
		at("result.Rows", truncate(2)), "result.Rows"})
}

// TestFig3ChangeFails changes the first fractional digit of the +II
// level's gates time.
func TestFig3ChangeFails(t *testing.T) {
	digit := func(v any) any {
		s := []byte(strconv.FormatFloat(v.(float64), 'f', -1, 64))
		i := strings.IndexByte(string(s), '.') + 1
		s[i] = '0' + (s[i]-'0'+1)%10
		f, _ := strconv.ParseFloat(string(s), 64)
		return f
	}
	runCases(t, gateCase{"GatesUS digit", "BENCH_fig3.json",
		at("result.1.GatesUS", digit), "result[1].GatesUS"})
}

func TestExperimentMismatchFails(t *testing.T) {
	runCases(t, gateCase{"table1", "BENCH_table1.json",
		at("experiment", to("table2")), "experiment mismatch"})
}

func TestBadFlagsAndFiles(t *testing.T) {
	runCases(t,
		gateCase{"fresh file missing", "BENCH_fig3.json", nil, "BENCH_fig3.json"},
		gateCase{"baseline file missing", "baseline-quality.json", nil, "baseline-quality.json"},
		gateCase{"path absent from fresh", "BENCH_table1.json",
			at("result.fpga_items_per_second", drop), "fpga_items_per_second"},
		gateCase{"path absent from baseline", "baseline-wallclock.json",
			at("result.instrumented.bytes_per_op", drop), "bytes_per_op"},
	)
	if err := run([]string{"-tolerance", "0.15"}, os.Stdout); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"bench-results"}, os.Stdout); err == nil {
		t.Fatal("positional argument accepted")
	}
}

func TestQualityWithinTolerancePasses(t *testing.T) {
	runCases(t, gateCase{"snapshot time moves", "BENCH_quality.json",
		at("result.snapshot.time", to("2030-01-01T00:00:00Z")), ""})
}

func TestQualityRecallRegressionFails(t *testing.T) {
	runCases(t, gateCase{"recall one ulp lower", "BENCH_quality.json",
		at("result.recall", nextDown), "result.recall"})
}

// TestQualityFPRAbsoluteSlackFails: the FPR's absolute slack is zero, so
// the smallest rise fails.
func TestQualityFPRAbsoluteSlackFails(t *testing.T) {
	runCases(t, gateCase{"fpr one ulp higher", "BENCH_quality.json",
		at("result.fpr", nextUp), "result.fpr"})
}

func TestQualityDriftPSIFails(t *testing.T) {
	runCases(t,
		gateCase{"headline psi", "BENCH_quality.json", at("result.drift_psi", plus(1e-9)), "result.drift_psi"},
		gateCase{"snapshot psi", "BENCH_quality.json", at("result.snapshot.drift.psi", plus(1e-9)), "result.snapshot.drift.psi"},
	)
}

func TestQualityDetectionLatencyRegressionFails(t *testing.T) {
	runCases(t,
		gateCase{"windows_to_flag_p99 +1", "BENCH_quality.json",
			at("result.windows_to_flag_p99", plus(1)), "result.windows_to_flag_p99"},
		gateCase{"snapshot bytes_at_risk p50 +1", "BENCH_quality.json",
			at("result.snapshot.bytes_at_risk.p50", plus(1)), "result.snapshot.bytes_at_risk.p50"},
	)
}

func TestQualityConfusionChangeFails(t *testing.T) {
	runCases(t, gateCase{"tp +1", "BENCH_quality.json",
		at("result.snapshot.confusion.tp", plus(1)), "result.snapshot.confusion.tp"})
}

func TestQualityExperimentMismatchFails(t *testing.T) {
	runCases(t, gateCase{"quality", "BENCH_quality.json",
		at("experiment", to("metrics")), "experiment mismatch"})
}

func TestWallclockAllocRegressionFails(t *testing.T) {
	runCases(t,
		gateCase{"allocs/op +1", "BENCH_wallclock.json",
			at("result.instrumented.allocs_per_op", plus(1)), "allocs_per_op"},
		gateCase{"B/op +2%", "BENCH_wallclock.json",
			at("result.instrumented.bytes_per_op", times(1.02)), "bytes_per_op"},
	)
}

// TestWallclockWithinTolerancePasses: run-to-run allocation noise and any
// host wall time pass.
func TestWallclockWithinTolerancePasses(t *testing.T) {
	runCases(t,
		gateCase{"allocs/op +0.005", "BENCH_wallclock.json",
			at("result.instrumented.allocs_per_op", plus(0.005)), ""},
		gateCase{"allocs/op -1", "BENCH_wallclock.json",
			at("result.instrumented.allocs_per_op", plus(-1)), ""},
		gateCase{"B/op +0.5%", "BENCH_wallclock.json",
			at("result.instrumented.bytes_per_op", times(1.005)), ""},
		gateCase{"ns/op doubled", "BENCH_wallclock.json",
			at("result.instrumented.ns_per_op", times(2)), ""},
	)
}

func TestWallclockExperimentMismatchFails(t *testing.T) {
	runCases(t, gateCase{"wallclock", "BENCH_wallclock.json",
		at("experiment", to("fleet")), "experiment mismatch"})
}
