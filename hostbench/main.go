// Command hostbench measures the host-clock cost of the CSD detection stack
// on three seeded workloads and checks every verdict it is served.
//
// Run it from the repository root (hostbench/run.sh builds and runs it):
//
//	hostbench --workload live-open --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// runs the serialized per-layer ladder and prints the per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it records the run's metadata. A verdict or simulated
// timing that differs from the reference makes the run fail (exit 1).
// See README.md for the workloads and every metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/lstm"
)

const (
	// setupRuns set-ups are timed per run; setup_s is their median.
	setupRuns = 21
	// warmup precedes every measured interval: checked, not measured.
	warmup = time.Second
)

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: live-open, stream-detect or scan-stored")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured interval, seconds (after a 1 s warm-up)")
	trace := fs.Int("trace", 0, "1: also run the serialized per-layer ladder and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if !slices.Contains(workloadNames, *name) {
		return options{}, fmt.Errorf("--workload %q: want one of %v", *name, workloadNames)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}, nil
}

// run executes one benchmark run and writes its metadata and result. It
// reports whether every answer matched the reference.
func run(args []string, out io.Writer) (bool, error) {
	opt, err := parseFlags(args)
	if err != nil {
		return false, err
	}
	return execute(opt, out, nil)
}

// execute is run after flag parsing. tamper, when non-nil, edits the
// reference before timing; tests use it to show a wrong answer is caught.
func execute(opt options, out io.Writer, tamper func(*reference)) (bool, error) {
	w, err := generate(opt.workload, opt.seed, warmup+opt.seconds)
	if err != nil {
		return false, err
	}

	var m *lstm.Model
	var b *bench
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		b.close()
		// Each set-up starts from a collected heap, so one set-up's garbage
		// is not charged to the next.
		runtime.GC()
		var d time.Duration
		if m, b, d, err = setupOnce(w, opt.trace); err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer b.close()

	ref, err := buildReference(m, w)
	if err != nil {
		return false, err
	}
	if tamper != nil {
		tamper(ref)
	}
	runtime.GC()

	win := newWindow(warmup, opt.seconds)
	var heap heapSampler
	var rt runtimeDelta
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		heap.sample(win, &rt)
	}()
	t := drive(w, ref, b.fl, win)
	wg.Wait()

	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	perSecond := win.bucketLen.Seconds()
	lat := t.latencies()
	if len(lat) == 0 {
		return false, fmt.Errorf("no window completed in the measured interval")
	}
	if opt.trace {
		layers, err := traced(m, w, ref, b, t, rt)
		if err != nil {
			return false, err
		}
		res.Metrics = layers
		res.Metrics["window_p50_ms"] = metric{ms(quantile(lat, 0.50)), "ms"}
		res.Metrics["window_p99_ms"] = metric{ms(quantile(lat, 0.99)), "ms"}
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		// The mean, not the median: scan-stored's latencies form two modes
		// (windows that overlap a GC mark phase run about a third slower),
		// and its median jumped between them from run to run.
		res.Metrics["window_mean_ms"] = metric{t.perBucket(func(b bucket) float64 {
			return meanNs(b.lat) / 1e6
		}), "ms"}
		res.Metrics["window_p90_ms"] = metric{t.perBucket(func(b bucket) float64 {
			return ms(quantile(sorted(b.lat), 0.90))
		}), "ms"}
		res.Metrics["windows_per_s"] = metric{t.perBucket(func(b bucket) float64 {
			return float64(b.windows) / perSecond
		}), "windows/s"}
		res.Metrics["calls_per_s"] = metric{t.perBucket(func(b bucket) float64 {
			return float64(b.calls) / perSecond
		}), "calls/s"}
		res.Metrics["heap_peak_mb"] = metric{median(heap.peaks) / (1 << 20), "MB"}
	}
	res.Correct = t.failed == 0 && res.Attempted > 0

	if err := writeJSONLine(out, map[string]any{"meta": metadata(opt, w, ref, t, setups)}); err != nil {
		return false, err
	}
	if err := writeJSONLine(out, res); err != nil {
		return false, err
	}
	return res.Correct, nil
}

func writeJSONLine(out io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// metadata records what a result was measured on and with.
func metadata(opt options, w *workload, ref *reference, t *tally, setups []float64) map[string]any {
	var perBucket []int
	for _, b := range t.buckets {
		perBucket = append(perBucket, b.windows)
	}
	meta := map[string]any{
		"workload":           opt.workload,
		"seed":               opt.seed,
		"seconds":            opt.seconds.Seconds(),
		"trace":              opt.trace,
		"input_digest":       w.digest,
		"live_rate":          liveRate,
		"clients":            clients,
		"devices":            fleetNodes,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"cpu_model":          cpuModel(),
		"go_version":         runtime.Version(),
		"commit":             commit(),
		"setup_s_runs":       setups,
		"succeeded":          t.attempted - t.failed,
		"latency_samples":    len(t.latencies()),
		"windows_per_bucket": perBucket,
		"shed":               t.shed,
		"recall":             ref.recall,
		"fpr":                ref.fpr,
		"reference":          ref.size(),
	}
	if t.firstErr != nil {
		meta["first_failure"] = t.firstErr.Error()
	}
	return meta
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary at build time, or
// "unknown" when it was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
