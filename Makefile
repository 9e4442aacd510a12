GO ?= go
BENCH_JSON_DIR ?= bench-results

.PHONY: build test bench bench-json bench-gate smoke load-smoke prof-smoke quality-smoke trace lint fuzz verify fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench . -benchmem ./...

# bench-json runs the fast (non-training) experiments and writes their
# structured results to $(BENCH_JSON_DIR)/BENCH_<experiment>.json.
bench-json:
	$(GO) run ./cmd/csdbench -experiment fig3 -json $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdbench -experiment table1 -measure-go=false -json $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdbench -experiment table2 -json $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdbench -experiment energy -json $(BENCH_JSON_DIR)

# bench-gate regenerates the table1, fleet, wallclock, and quality results
# and fails (nonzero exit) when classification throughput or any platform's
# per-item latency regressed more than ±15%, the fleet's serving throughput /
# p99 queue wait regressed more than ±50% (wall-clock benchmark), the
# instrumented serve path's ns/op (±50%) or allocs/op (±25%) regressed, or
# detection quality slipped (recall / detection latency ±15%, FPR +0.02
# absolute, drift PSI +0.2 absolute), against the checked-in baselines.
# Refresh a baseline deliberately by copying a trusted BENCH_<x>.json over
# the matching bench-results/baseline-<x>.json (plain baseline.json for
# table1); refresh the drift reference with
# csdbench -experiment quality -quality-write-reference.
bench-gate:
	$(GO) run ./cmd/csdbench -experiment table1 -measure-go=false -json $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdbench -experiment fleet -json $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdbench -experiment wallclock -json $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdbench -experiment quality -json $(BENCH_JSON_DIR)
	$(GO) run ./cmd/benchdiff -fresh $(BENCH_JSON_DIR)/BENCH_table1.json \
		-fleet-fresh $(BENCH_JSON_DIR)/BENCH_fleet.json \
		-wallclock-fresh $(BENCH_JSON_DIR)/BENCH_wallclock.json \
		-quality-fresh $(BENCH_JSON_DIR)/BENCH_quality.json

# smoke replays the ransomware demo with full forensics on: the JSON-lines
# event stream and one incident report per flagged process land next to the
# benchmark results for artifact upload and jq-based inspection.
smoke:
	$(GO) run ./cmd/csddetect \
		-events $(BENCH_JSON_DIR)/events.jsonl -incident-dir $(BENCH_JSON_DIR)/incidents

# load-smoke runs a short seeded open-loop load test against a 4-device
# fleet and writes the SLO attainment report (objectives, error budgets,
# burn-rate alerts) for artifact upload. The rate sits well under the
# fleet's measured capacity so the report judges the serving path, not the
# CI runner, and the latency objective is relaxed from the paper's 2ms to a
# CI-realistic 25ms (shared runners add milliseconds of scheduling noise).
# -seed pins the arrival schedule (and its digest) for run-over-run
# comparability.
load-smoke:
	mkdir -p $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdload -devices 4 -arrivals poisson -rate 500 \
		-duration 5s -warmup 1s -seed 1 -latency-slo 25ms \
		-json $(BENCH_JSON_DIR)/slo-report.json

# prof-smoke is load-smoke with the continuous profiler on and chaos
# injected: the full-rack blackout deliberately pages the availability
# objective, so the run proves the page → incident → flight-dump chain and
# uploads the dumps (runtime samples + per-request stage breakdowns, job-ID
# correlated with the incident) and the final prof.json snapshot.
prof-smoke:
	mkdir -p $(BENCH_JSON_DIR)/prof
	$(GO) run ./cmd/csdload -devices 4 -arrivals poisson -rate 500 \
		-duration 5s -warmup 1s -seed 1 -latency-slo 25ms -chaos \
		-prof -prof-dir $(BENCH_JSON_DIR)/prof \
		-json $(BENCH_JSON_DIR)/prof/slo-report.json
	@ls $(BENCH_JSON_DIR)/prof/flight-*.json >/dev/null 2>&1 || \
		{ echo "prof-smoke: no flight dump produced" >&2; exit 1; }

# quality-smoke proves the detection-quality loop on a seeded run: the
# labeled PID population must produce true positives (the min-TP gate fails
# the run on total blindness) and the scorecard artifact — the same document
# /quality.json serves — lands next to the SLO report for upload. A second
# run with -quality-inject-miss drills the recall SLO: every verdict is
# forced un-flagged, the recall objective burns through, and the run must
# page at least one incident.
quality-smoke:
	mkdir -p $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdload -devices 2 -rate 800 -duration 3s -seed 13 \
		-pids 200 -ransom-fraction 0.3 -latency-slo 25ms \
		-quality-min-tp 1 -quality-json $(BENCH_JSON_DIR)/quality.json \
		-json $(BENCH_JSON_DIR)/quality-slo-report.json
	$(GO) run ./cmd/csdload -devices 2 -rate 800 -duration 3s -seed 13 \
		-pids 200 -ransom-fraction 0.3 -latency-slo 25ms \
		-quality-inject-miss -recall-target 0.99 \
		-json $(BENCH_JSON_DIR)/quality-miss-report.json
	@grep -q '"incidents_opened": 0' $(BENCH_JSON_DIR)/quality-miss-report.json && \
		{ echo "quality-smoke: inject-miss run paged no incident" >&2; exit 1; } || true

# trace runs the table1 configuration with the device timeline tracer on,
# writing a Perfetto-loadable Chrome trace (open at https://ui.perfetto.dev)
# next to the BENCH_*.json results and printing the cycle/occupancy profile.
trace:
	$(GO) run ./cmd/csdbench -experiment table1 -measure-go=false \
		-trace $(BENCH_JSON_DIR)/trace.json -json $(BENCH_JSON_DIR)

# lint runs both static-analysis fronts (see DESIGN.md "Static analysis"):
#   1. the design-rule checker over the supported deploy matrix, and the
#      numeric range analysis over a quick-trained paper model, each writing
#      the machine-readable findings CI uploads as artifacts;
#   2. the custom Go-source analyzers (simclock, ctxfirst, telemetrylabels,
#      eventname, fixedwidth) from the tools/analyzers module, plus that
#      module's own test suite (which includes linting this repository as a
#      fixture);
#   3. staticcheck over both modules, when the binary is installed (CI
#      installs it; locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
lint:
	mkdir -p $(BENCH_JSON_DIR)
	$(GO) run ./cmd/csdlint drc -q -json $(BENCH_JSON_DIR)/drc.json
	$(GO) run ./cmd/csdlint ranges -q -json $(BENCH_JSON_DIR)/ranges.json
	cd tools/analyzers && $(GO) run ./cmd/csdlint-go -root ../..
	cd tools/analyzers && $(GO) test ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... && cd tools/analyzers && staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# fuzz gives each native fuzz target a short smoke budget — enough to shake
# out regressions in the scheduler, the event wire format and the fixed-point
# fast path without tying up CI. Crashers land in testdata/fuzz/ for triage.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzScheduleLoop -fuzztime=$(FUZZTIME) ./internal/hls/
	$(GO) test -run=^$$ -fuzz=FuzzEventJSON -fuzztime=$(FUZZTIME) ./internal/eventlog/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeJSON -fuzztime=$(FUZZTIME) ./internal/eventlog/
	$(GO) test -run=^$$ -fuzz=FuzzQualityLabel -fuzztime=$(FUZZTIME) ./internal/quality/
	$(GO) test -run=^$$ -fuzz=FuzzIntervalSoundness -fuzztime=$(FUZZTIME) ./internal/absint/
	$(GO) test -run=^$$ -fuzz=FuzzFixedFastMatchesShadow -fuzztime=$(FUZZTIME) ./internal/kernels/

# verify is the pre-merge gate: static checks (vet + both lint fronts), a
# full build, and the whole test suite under the race detector (the serving
# layer is concurrent).
verify: lint
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

fmt:
	gofmt -w .
