GO ?= go

.PHONY: all build test tier1 race vet lint vettool chaos campaign crash bench benchfield benchexplore obsreport profile clean

all: tier1

# build and vet also cover the nested e2ebench module (its own go.mod, so
# the root ./... skips it): the benchmark client calls the public facade,
# and a facade change that breaks it must fail here. -o /dev/null keeps the
# single-main-package build from writing a binary into e2ebench/.
build:
	$(GO) build ./...
	cd e2ebench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...
	cd e2ebench && $(GO) vet ./...

# lint runs the engine-invariant analyzer suite (internal/analysis) over
# the whole module: detorder, internfreeze, obsguard, senterr, parshard,
# plus the cross-function dataflow analyzers ctxpoll, spanend, hotalloc,
# codecpair, atomicfield.
# Exit status 1 means findings; suppress a deliberate exception with a
# //lint:<token> comment on the flagged line or the line above (the token
# is per-analyzer: nondet, mutates, obs, sentinel, unsync, poll, span,
# alloc, codec, atomic; //lint:hotpath is a marker that opts a function
# into the hotalloc no-allocation obligation, not a suppression).
# `go run ./cmd/lint -json ./...` emits machine-readable diagnostics;
# `-stale` audits //lint: comments that no longer suppress anything.
lint:
	$(GO) run ./cmd/lint ./...

# vettool runs the same suite through go vet's -vettool protocol, which
# adds build-cache incrementality, covers _test.go files (senterr), and
# ships cross-package facts between units as .vetx payloads.
vettool:
	$(GO) build -o bin/lint ./cmd/lint
	$(GO) vet -vettool=$(CURDIR)/bin/lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...
	$(GO) test -race -cpu 1,2,4 -run 'TestFieldPropertyMatchesOracle|TestCertifyGraphMatchesRecursive|TestFieldLayerWordBoundary|TestFieldMatchesScalarPlanes' ./internal/valence
	$(GO) test -race -cpu 1,2,4 -run 'TestSharded' .
	$(GO) test -race -cpu 1,2,4 -run 'TestRoundEngineMatchesPerAction' ./internal/syncmp
	$(GO) test -race ./internal/obs ./internal/cli ./cmd/lint

# chaos runs the deterministic fault-injection suite under the race
# detector: every named fault point (chaos.Points) is driven through the
# delay/panic/cancel/budget matrix plus seeded random plans, and the
# checkpoint/resume property tests replay interrupted explorations,
# certifications, and field sweeps to bit-identical results.
chaos:
	$(GO) test -race ./internal/chaos
	$(GO) test -race -run 'Checkpoint|Resum|Fault|Panic' ./internal/core ./internal/valence ./internal/resilient

# campaign sweeps the seeded chaos campaign under the race detector: seeds
# × every named fault point × every fault kind, each case run under the
# retry/resume supervisor, asserting zero unrecovered failures and a
# bit-identical result against the fault-free reference pipeline.
campaign:
	$(GO) run -race ./cmd/chaoscampaign -seeds 18 -out /tmp/chaoscampaign_report.json
	@rm -f /tmp/chaoscampaign_report.json

# crash proves checkpoint durability against real process death: a child
# process saving checkpoint generations in a loop is SIGKILLed mid-write
# repeatedly, and each time the parent must load an intact generation and
# resume to the bit-identical graph; a deterministic torn-write/bit-rot
# pass exercises the generation fallback on top.
crash:
	$(GO) run ./cmd/chaoscampaign -crash -crash-kills 4

# tier1 is the gate every change must keep green: full build, vet, the
# engine-invariant lint suite, the complete test suite (including the
# golden experiment outputs in the root package), the race detector
# over the internal packages that use concurrency (parallel exploration,
# parallel certification, shared successor caches; the valence-field
# property tests and the root sharded-cache suites are re-run explicitly
# above at -cpu 1,2,4 so a single-CPU host cannot hide a parallel race;
# ./internal/... also covers internal/analysis and its fixture tests), the
# chaos fault-injection suite, the supervised chaos campaign
# and SIGKILL crash harness, a one-iteration smoke pass of the
# field-kernel micro-benchmarks, and the traced-run obsreport round trip.
tier1: build vet lint test race chaos campaign crash benchfield benchexplore obsreport

# bench regenerates BENCH_6.json from the E1–E11 experiment benchmarks,
# the sharded/legacy exploration grid, the certifier and field-kernel
# benchmarks, the resilience overhead rows, the instrumented-phase
# latency-percentile rows, and the observability overhead rows, and
# prints the per-row delta (plus the geomean speedup line) against the
# committed PR 7 baseline BENCH_5.json.
bench:
	$(GO) run ./cmd/bench -out BENCH_6.json -baseline BENCH_5.json

# benchfield smoke-runs the valence field micro-benchmark grid (the
# ScalarMasks oracle vs NewFieldCtx, on graded and fixpoint graphs) at one
# iteration per row — it validates the sweep still runs and reports
# allocs, not its timings; use `make bench` for real numbers.
benchfield:
	$(GO) test ./internal/valence -run '^$$' -bench 'BenchmarkFieldSweep' -benchtime 1x -benchmem

# benchexplore smoke-runs the sharded-vs-legacy exploration grid (model ×
# implementation × cold/warm × workers) at one iteration per row — it
# validates the grid still explores and both cache implementations agree
# on states/edges; use `make bench` for real numbers.
benchexplore:
	$(GO) test . -run '^$$' -bench 'BenchmarkExplore' -benchtime 1x -benchmem

# obsreport smoke-runs the journal analysis toolchain end to end: a traced
# E1 run writes a span journal, which obsreport must parse into a phase
# report and a Chrome trace. Any parse or export failure exits non-zero.
obsreport:
	$(GO) run ./cmd/experiments -only E1 -journal /tmp/obsreport_smoke.jsonl -trace >/dev/null
	$(GO) run ./cmd/obsreport -chrome /tmp/obsreport_smoke_trace.json /tmp/obsreport_smoke.jsonl >/dev/null
	@rm -f /tmp/obsreport_smoke.jsonl /tmp/obsreport_smoke_trace.json

# profile reruns the benchmark suites with CPU/heap profiling enabled and
# leaves the profiles, test binaries, and a BENCH json under profiles/.
# Inspect with: go tool pprof profiles/bench_root.test profiles/cpu_root.prof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/bench -out profiles/BENCH_profile.json -profiledir profiles

clean:
	$(GO) clean ./...
