package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBuildConfigurations pins the full build report of every linking
// configuration byte for byte against testdata/<name>.golden.
func TestBuildConfigurations(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"vanilla_u200", []string{"-level", "vanilla", "-platform", "u200"}},
		{"ii_ku15p", []string{"-level", "ii", "-platform", "ku15p"}},
		{"fixed_u200", []string{"-level", "fixed", "-platform", "u200"}},
		{"mixed_ku15p", []string{"-level", "mixed", "-platform", "ku15p"}},
		{"fixed_streaming", []string{"-level", "fixed", "-streaming"}},
		{"fixed_gatecus2", []string{"-level", "fixed", "-gatecus", "2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(c.args, &buf); err != nil {
				t.Fatalf("run(%v): %v", c.args, err)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("run(%v) output differs from %s:\ngot:\n%s\nwant:\n%s", c.args, path, buf.Bytes(), want)
			}
		})
	}
}

func TestBuildFailures(t *testing.T) {
	bad := [][]string{
		{"-level", "fixed", "-platform", "ku15p"}, // 5,120 DSPs > 1,968
		{"-level", "quantum"},
		{"-platform", "versal"},
		{"-level", "fixed", "-gatecus", "3"},
		{"-level", "vanilla", "-streaming"},
	}
	for _, args := range bad {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}
