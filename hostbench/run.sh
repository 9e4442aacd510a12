#!/usr/bin/env bash
# Builds the host-clock benchmark from this checkout's sources and runs it.
# Run it from the repository root; the arguments pass through:
#
#   bash hostbench/run.sh --workload live-open --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the compiler's scratch files and the
# toolchain's own state (HOME, telemetry) all stay under
# .bench_build/hostbench/ in the checkout. Build output goes to stderr, so
# the last line of stdout is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/hostbench"
mkdir -p "$out/home" "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp"
(
	cd "$root/hostbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/hostbench" .
) >&2
exec "$out/hostbench" "$@"
