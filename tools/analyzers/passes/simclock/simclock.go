// Package simclock flags wall-clock use inside simulated-clock packages.
//
// The device stack (hls, fpga, csd, pcie, ssd, kernels) models time as
// counted cycles converted through the part's clock frequency; a stray
// time.Now or time.Sleep there silently couples simulated latency to host
// load and makes every cycle-accounting test flaky. Host-side packages
// (serve, detect, telemetry, ...) are free to use real time.
package simclock

import (
	"go/ast"
	"strings"

	"github.com/kfrida1/csdinf/tools/analyzers/analysis"
)

// simDirs are the simulated-clock packages, by root-relative directory.
// Subdirectories inherit the restriction.
var simDirs = []string{
	"internal/hls",
	"internal/fpga",
	"internal/csd",
	"internal/pcie",
	"internal/ssd",
	"internal/kernels",
}

// banned are the time-package identifiers that read or schedule against the
// host clock. Pure value types (time.Duration, time.Time as data) stay
// legal: only these accessors are flagged, whether called or referenced as
// function values.
var banned = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
	"Tick": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc:  "forbid wall-clock time in simulated-clock device packages",
	Run:  run,
}

func inSimDir(dir string) bool {
	for _, d := range simDirs {
		if dir == d || strings.HasPrefix(dir, d+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) {
	if !inSimDir(pass.Pkg.Dir) {
		return
	}
	for _, f := range pass.Pkg.Files {
		timeName := f.ImportName("time")
		if timeName == "" {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok || ident.Name != timeName || !banned[sel.Sel.Name] {
				return true
			}
			pass.Reportf(f, sel.Pos(),
				"%s.%s reads the host clock inside simulated-clock package %s; derive time from cycle counts (or annotate //csdlint:allow simclock <reason>)",
				timeName, sel.Sel.Name, pass.Pkg.Dir)
			return true
		})
	}
}
