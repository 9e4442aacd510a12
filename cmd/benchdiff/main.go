// Command benchdiff is the benchmark regression gate. One manifest of rows
// {source, path, kind, tolerance} names every gated number: each row
// compares the JSON subtree at path between the checked-in
// baseline-<source>.json and the fresh BENCH_<source>.json that
// cmd/csdbench -experiment <source> -json writes. The gate exits nonzero when
// any row fails. There are two kinds of row:
//
//   - exact: the subtrees must be deep-equal. Simulated device timings
//     (Table I, Fig. 3), the seeded corpus overview (Table II), the energy
//     comparison and the seeded detection-quality scorecard are
//     deterministic, so any change — better or worse — is either a bug or a
//     deliberate re-pin.
//   - max: a lower-is-better number may not exceed baseline × (1 +
//     tolerance). It gates the observability self-audit's allocs/op and
//     B/op, which repeat to well under 1% between runs.
//
// Host wall time is not gated here: hostbench owns it, with its own
// per-layer ladder and bounds.
//
// Re-pin a source by copying a trusted BENCH_<source>.json over
// baseline-<source>.json and saying why in CHANGES.md.
//
// Usage:
//
//	benchdiff                                  # both directories default to bench-results
//	benchdiff -fresh out -baselines bench-results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

type kind string

const (
	exact  kind = "exact"
	atMost kind = "max"
)

// row is one gated subtree of one source's result document.
type row struct {
	source    string
	path      string // dot-separated keys from the document root
	kind      kind
	tolerance float64 // max rows only: relative headroom over baseline
}

var manifest = []row{
	{"table1", "result.Rows", exact, 0},
	{"table1", "result.fpga_items_per_second", exact, 0},

	{"fig3", "result", exact, 0},

	{"table2", "result", exact, 0},

	{"energy", "result", exact, 0},

	{"quality", "result.recall", exact, 0},
	{"quality", "result.fpr", exact, 0},
	{"quality", "result.precision", exact, 0},
	{"quality", "result.accuracy", exact, 0},
	{"quality", "result.windows_to_flag_p50", exact, 0},
	{"quality", "result.windows_to_flag_p99", exact, 0},
	{"quality", "result.bytes_at_risk_p50", exact, 0},
	{"quality", "result.bytes_at_risk_p99", exact, 0},
	{"quality", "result.drift_psi", exact, 0},
	{"quality", "result.drifted", exact, 0},
	{"quality", "result.snapshot.windows", exact, 0},
	{"quality", "result.snapshot.labeled", exact, 0},
	{"quality", "result.snapshot.unlabeled", exact, 0},
	{"quality", "result.snapshot.confusion", exact, 0},
	{"quality", "result.snapshot.families", exact, 0},
	{"quality", "result.snapshot.processes", exact, 0},
	{"quality", "result.snapshot.windows_to_flag", exact, 0},
	{"quality", "result.snapshot.bytes_at_risk", exact, 0},
	{"quality", "result.snapshot.score_bins", exact, 0},
	{"quality", "result.snapshot.drift", exact, 0},

	{"wallclock", "result.instrumented.allocs_per_op", atMost, 0.01},
	{"wallclock", "result.instrumented.bytes_per_op", atMost, 0.01},
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	freshDir := fs.String("fresh", "bench-results", "directory holding the fresh BENCH_<source>.json results")
	baseDir := fs.String("baselines", "bench-results", "directory holding the checked-in baseline-<source>.json files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	return gate(*freshDir, *baseDir, out)
}

// gate checks every manifest row, printing one line each, and fails with
// the list of failed rows. Unreadable inputs — a missing file, a path absent on either
// side, an experiment mismatch — fail at once.
func gate(freshDir, baseDir string, out io.Writer) error {
	type pair struct{ base, fresh map[string]any }
	docs := map[string]pair{}
	var failed []string
	for _, r := range manifest {
		p, ok := docs[r.source]
		if !ok {
			base, err := readDoc(filepath.Join(baseDir, "baseline-"+r.source+".json"))
			if err != nil {
				return err
			}
			fresh, err := readDoc(filepath.Join(freshDir, "BENCH_"+r.source+".json"))
			if err != nil {
				return err
			}
			if base["experiment"] != fresh["experiment"] {
				return fmt.Errorf("%s: experiment mismatch: baseline %v vs fresh %v",
					r.source, base["experiment"], fresh["experiment"])
			}
			p = pair{base, fresh}
			docs[r.source] = p
		}
		base, err := lookup(p.base, r.path)
		if err != nil {
			return fmt.Errorf("baseline-%s.json: %w", r.source, err)
		}
		fresh, err := lookup(p.fresh, r.path)
		if err != nil {
			return fmt.Errorf("BENCH_%s.json: %w", r.source, err)
		}
		status := "ok"
		if msg := r.check(base, fresh); msg != "" {
			status = "FAIL " + msg
			failed = append(failed, r.source+" "+msg)
		} else if r.kind == atMost {
			status += fmt.Sprintf(" (baseline %v, fresh %v)", base, fresh)
		}
		fmt.Fprintf(out, "%-10s %-36s %-5s %s\n", r.source, r.path, r.kind, status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d rows differ from baseline:\n  %s",
			len(failed), len(manifest), strings.Join(failed, "\n  "))
	}
	fmt.Fprintf(out, "benchdiff: all %d rows match baseline\n", len(manifest))
	return nil
}

// check returns "" when fresh passes the row against base, else why not.
func (r row) check(base, fresh any) string {
	if r.kind == exact {
		return firstDiff(r.path, base, fresh)
	}
	b, okB := base.(float64)
	f, okF := fresh.(float64)
	if !okB || !okF {
		return fmt.Sprintf("%s: want numbers, have baseline %s, fresh %s", r.path, show(base), show(fresh))
	}
	if limit := b * (1 + r.tolerance); f > limit {
		return fmt.Sprintf("%s: fresh %v over baseline %v × %v = %v", r.path, f, b, 1+r.tolerance, limit)
	}
	return ""
}

func readDoc(path string) (map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return doc, nil
}

// lookup walks path's dot-separated keys from doc's root.
func lookup(doc any, path string) (any, error) {
	v := doc
	for _, key := range strings.Split(path, ".") {
		m, _ := v.(map[string]any)
		next, ok := m[key]
		if !ok {
			return nil, fmt.Errorf("no %q", path)
		}
		v = next
	}
	return v, nil
}

// firstDiff returns "" when the decoded JSON values a and b are deep-equal,
// else the first differing leaf (in key order) with both sides.
func firstDiff(path string, a, b any) string {
	switch a := a.(type) {
	case map[string]any:
		bm, ok := b.(map[string]any)
		if !ok || len(a) != len(bm) {
			break
		}
		for _, k := range slices.Sorted(maps.Keys(a)) {
			bv, ok := bm[k]
			if !ok {
				return fmt.Sprintf("%s.%s: absent from fresh", path, k)
			}
			if d := firstDiff(path+"."+k, a[k], bv); d != "" {
				return d
			}
		}
		return ""
	case []any:
		bs, ok := b.([]any)
		if !ok || len(a) != len(bs) {
			break
		}
		for i := range a {
			if d := firstDiff(path+"["+strconv.Itoa(i)+"]", a[i], bs[i]); d != "" {
				return d
			}
		}
		return ""
	default:
		if a == b {
			return ""
		}
	}
	return fmt.Sprintf("%s: baseline %s, fresh %s", path, show(a), show(b))
}

// show renders a decoded JSON value for a failure line, shortened.
func show(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	if s := string(data); len(s) <= 60 {
		return s
	}
	return string(data[:57]) + "..."
}
