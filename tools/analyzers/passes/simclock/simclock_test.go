package simclock

import (
	"strings"
	"testing"

	"github.com/kfrida1/csdinf/tools/analyzers/analysis"
)

func runOn(t *testing.T, dir, src string) []analysis.Diagnostic {
	t.Helper()
	pkg, err := analysis.PackageFromSource(dir, map[string]string{"a.go": src})
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{Analyzer})
}

func TestFlagsWallClockInSimPackages(t *testing.T) {
	src := `package csd

import "time"

func bad() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}

func legalValueTypes(d time.Duration) time.Time { var t time.Time; _ = d; return t }
`
	diags := runOn(t, "internal/csd", src)
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %d, want 3 (Now, Sleep, Since): %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "host clock") {
			t.Fatalf("unexpected message: %s", d.Message)
		}
	}
}

func TestImportRenameIsTracked(t *testing.T) {
	src := `package hls

import wall "time"

var t = wall.Now()
`
	if diags := runOn(t, "internal/hls", src); len(diags) != 1 {
		t.Fatalf("renamed import not tracked: %v", diags)
	}
}

func TestHostPackagesAreFree(t *testing.T) {
	src := `package serve

import "time"

var t = time.Now()
`
	if diags := runOn(t, "internal/serve", src); len(diags) != 0 {
		t.Fatalf("host package flagged: %v", diags)
	}
}

func TestSubdirectoriesInherit(t *testing.T) {
	src := `package sub

import "time"

var t = time.Now()
`
	if diags := runOn(t, "internal/fpga/sub", src); len(diags) != 1 {
		t.Fatalf("subdirectory not covered: %v", diags)
	}
}

func TestAllowAnnotationSuppresses(t *testing.T) {
	src := `package csd

import "time"

var t = time.Now() //csdlint:allow simclock seed for the jitter model only

//csdlint:allow simclock previous-line form
var u = time.Now()

var v = time.Now()
`
	diags := runOn(t, "internal/csd", src)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want only the unannotated use", diags)
	}
	if diags[0].Pos.Line != 10 {
		t.Fatalf("flagged line %d, want 10", diags[0].Pos.Line)
	}
}

func TestFunctionValueReferenceIsFlagged(t *testing.T) {
	src := `package pcie

import "time"

var clock = time.Now
`
	if diags := runOn(t, "internal/pcie", src); len(diags) != 1 {
		t.Fatalf("func-value reference not flagged: %v", diags)
	}
}
