# Developer conveniences; CI runs the same targets.

GO ?= go
FUZZTIME ?= 10s
# The gated hot-path benchmarks: per-write planning cost (base and
# registry-composed schemes), one full system simulation end to end,
# the serial-vs-parallel engine-mode comparison across bank counts, and
# the long-trace event-engine sweep (timing wheel vs the seed binary
# heap across pending populations), and workload synthesis alone.
BENCHFILTER ?= BenchmarkSchemePlanWrite|BenchmarkComposedSchemePlanWrite|BenchmarkSchemePlanWriteDense|BenchmarkArrayFlipCount|BenchmarkCacheHit|BenchmarkFullSystemSingle|BenchmarkFullSystemParallel|BenchmarkEngineLongTrace|BenchmarkGeneratorNext
BENCHCOUNT ?= 3

# Build stamping for `<binary> -version`: ldflags override the
# internal/version defaults with the exact commit and build date. Falls
# back to "unknown" outside a git checkout (internal/version then tries
# debug.ReadBuildInfo at runtime).
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
DATE ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
LDFLAGS = -X tetriswrite/internal/version.Commit=$(COMMIT) -X tetriswrite/internal/version.Date=$(DATE)

.PHONY: build test race fuzz-smoke bench bench-baseline bench-gate fleet-smoke crash-smoke

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

# Install the stamped binaries into ./bin for service deployments and
# the CI fleet smoke test.
bin: FORCE
	$(GO) build -ldflags '$(LDFLAGS)' -o bin/ ./cmd/...

FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short-budget fuzz smoke: each target gets $(FUZZTIME) of coverage-guided
# input generation on top of its seed corpus. Catches parser and codec
# regressions that fixed test vectors miss, cheap enough for every CI run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFlipCoding -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzPack -fuzztime=$(FUZZTIME) ./internal/tetris
	$(GO) test -run='^$$' -fuzz=FuzzSourceMatchesMathRand -fuzztime=$(FUZZTIME) ./internal/workload

# Run the gated benchmarks and leave the output in bench_new.txt for
# benchgate. -count=$(BENCHCOUNT): benchgate takes the best run per
# benchmark, discarding scheduler noise. Also refreshes the
# BENCH_<date>.json perf-trajectory artifact in the repo root, so the
# local tree carries the same history CI uploads.
bench:
	$(GO) test -run='^$$' -bench='$(BENCHFILTER)' -benchmem -count=$(BENCHCOUNT) . | tee bench_new.txt
	$(GO) run ./cmd/tetrisbench -bench-json -writes 200

# Refresh the committed baseline. Run on a quiet machine after an
# intentional performance change; the diff is part of the review.
bench-baseline:
	$(GO) test -run='^$$' -bench='$(BENCHFILTER)' -benchmem -count=$(BENCHCOUNT) . | tee results/bench_baseline.txt

# Gate the working tree against the committed baseline. ns/op is gated
# with a 10% budget — only meaningful when the baseline was produced on
# this machine; use BENCHGATE_FLAGS=-skip-ns to gate allocs/op alone
# (deterministic, hence portable across machines, and the stricter of
# the two checks: any increase fails).
bench-gate: bench
	$(GO) run ./cmd/benchgate -old results/bench_baseline.txt -new bench_new.txt $(BENCHGATE_FLAGS)

# Crash-consistency smoke: the seeded power-failure sweep under the race
# detector (every cut recovered, resumed and diffed against the
# crash-free oracle inside the test), then a slightly larger sweep via
# the CLI whose per-scheme classification table lands in
# crash_table.txt — the artifact CI uploads.
crash-smoke: bin
	$(GO) test -race -run TestCrashSweepContract ./internal/exp
	bin/tetrisbench -crash-every 64 -crash-cuts 4 -writes 80 | tee crash_table.txt

# End-to-end sweep-service smoke: broker + two workers on loopback, one
# worker SIGKILLed mid-sweep, final table diffed against a serial
# tetrisbench run. Exercises the whole fault path for real: processes,
# TCP, lease expiry, retry, journal.
fleet-smoke: bin
	./scripts/fleet_smoke.sh
