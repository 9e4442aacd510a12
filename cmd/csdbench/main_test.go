package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFastExperiments(t *testing.T) {
	// The training-based experiments (fig4/metrics) are exercised by
	// internal/experiments tests; here we cover the CLI wiring of the fast
	// paths.
	for _, args := range [][]string{
		{"-experiment", "fig3"},
		{"-experiment", "table2", "-seed", "3"},
		{"-experiment", "energy"},
		{"-experiment", "table1", "-trials", "50", "-measure-go=false"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	for _, exp := range []string{"fig3", "energy"} {
		if err := run([]string{"-experiment", exp, "-json", dir}); err != nil {
			t.Fatalf("run(%s): %v", exp, err)
		}
		path := filepath.Join(dir, "BENCH_"+exp+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s not written: %v", path, err)
		}
		var doc struct {
			Experiment string          `json:"experiment"`
			Result     json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s invalid JSON: %v", path, err)
		}
		if doc.Experiment != exp || len(doc.Result) == 0 {
			t.Fatalf("%s: experiment=%q, %d result bytes", path, doc.Experiment, len(doc.Result))
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"bogus", "latency", "window", "models"} {
		err := run([]string{"-experiment", exp})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-experiment %s: err = %v, want unknown experiment", exp, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
