# Developer conveniences; CI runs the same targets.

GO ?= go
FUZZTIME ?= 10s
# The gated hot-path benchmarks: per-write planning cost (base and
# registry-composed schemes, one fixed line pair and a captured vips
# write stream), one full system simulation end to end,
# the event engine on the long-trace pattern (at the 4-16 events a
# full-system run keeps pending, and at a 4Ki-32Ki tail), workload
# synthesis alone, trace ingestion (Parse of a 300k-record vips
# trace plus draining one CoreSource per core), and recording one
# latency sample.
BENCHFILTER ?= BenchmarkSchemePlanWrite|BenchmarkComposedSchemePlanWrite|BenchmarkSchemePlanWriteDense|BenchmarkSchemePlanStream|BenchmarkArrayFlipCount|BenchmarkCacheHit|BenchmarkFullSystemSingle|BenchmarkEngineLongTrace|BenchmarkGeneratorNext|BenchmarkTraceParse|BenchmarkLatencyAdd
BENCHCOUNT ?= 3

# Build stamping for `<binary> -version`: ldflags override the
# internal/version defaults with the exact commit and build date. Falls
# back to "unknown" outside a git checkout (internal/version then tries
# debug.ReadBuildInfo at runtime).
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
DATE ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
LDFLAGS = -X tetriswrite/internal/version.Commit=$(COMMIT) -X tetriswrite/internal/version.Date=$(DATE)

.PHONY: build lint test race fuzz-smoke bench-smoke bench bench-filter bench-baseline bench-gate fleet-smoke crash-smoke

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

# Install the stamped binaries into ./bin for service deployments and
# the CI fleet smoke test.
bin: FORCE
	$(GO) build -ldflags '$(LDFLAGS)' -o bin/ ./cmd/...

FORCE:

# Static checks: go vet, gofmt, and no internal package that only tests
# import (code kept only for tests belongs in _test.go files; every
# internal package must be reachable from a command, an example or the
# public API).
lint:
	$(GO) vet ./...
	@bad=$$(gofmt -l .); \
	[ -z "$$bad" ] || { echo "not gofmt-formatted:"; echo "$$bad"; exit 1; }
	@deps=$$($(GO) list -deps ./cmd/... ./examples/... .) && \
	orphans=$$($(GO) list ./internal/... | grep -vxF "$$deps" || true) && \
	{ [ -z "$$orphans" ] || { echo "internal packages nothing outside tests imports:"; echo "$$orphans"; exit 1; }; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short-budget fuzz smoke: each target gets $(FUZZTIME) of coverage-guided
# input generation on top of its seed corpus. Catches parser and codec
# regressions that fixed test vectors miss, cheap enough for every CI run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFlipCoding -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run='^$$' -fuzz=FuzzLanes -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run='^$$' -fuzz=FuzzStaticPlanMatchesReference -fuzztime=$(FUZZTIME) ./internal/schemes
	$(GO) test -run='^$$' -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzPack -fuzztime=$(FUZZTIME) ./internal/tetris
	$(GO) test -run='^$$' -fuzz=FuzzPlanWritePulseOrder -fuzztime=$(FUZZTIME) ./internal/tetris
	$(GO) test -run='^$$' -fuzz=FuzzReadStageMasks -fuzztime=$(FUZZTIME) ./internal/tetris
	$(GO) test -run='^$$' -fuzz=FuzzStructuralEquivalence -fuzztime=$(FUZZTIME) ./internal/tetris
	$(GO) test -run='^$$' -fuzz=FuzzSourceMatchesMathRand -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz=FuzzReplayMatchesGenerator -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz=FuzzEnginePopOrder -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzRunTrace -fuzztime=$(FUZZTIME) ./internal/system
	$(GO) test -run='^$$' -fuzz=FuzzLevelMatchesLRUReference -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzLatencyBucket -fuzztime=$(FUZZTIME) ./internal/stats

# Run every benchmark of every package once (a few seconds): catches a
# benchmark that no longer builds or fails, including the ablation
# suite, which the gated list below leaves out.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Run the gated benchmarks and leave the output in bench_new.txt for
# benchgate. -count=$(BENCHCOUNT): benchgate takes the best run per
# benchmark, discarding scheduler noise.
bench:
	$(GO) test -run='^$$' -bench='$(BENCHFILTER)' -benchmem -count=$(BENCHCOUNT) . | tee bench_new.txt

# Print the gated benchmark list: CI's bench-gate job benchmarks the
# base commit with it, so the list lives only in BENCHFILTER above.
bench-filter:
	@echo '$(BENCHFILTER)'

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
# crash-free oracle inside the test) and the pinned classification
# table golden, then a slightly larger sweep via
# the CLI whose per-scheme classification table lands in
# crash_table.txt — the artifact CI uploads.
crash-smoke: bin
	$(GO) test -race -run 'TestCrashSweepContract|TestCrashTableGolden' ./internal/exp
	bin/tetrisbench -crash-every 64 -crash-cuts 4 -writes 80 | tee crash_table.txt

# End-to-end sweep-service smoke: broker + two workers on loopback, one
# worker SIGKILLed mid-sweep, final table diffed against a serial
# tetrisbench run. Exercises the whole fault path for real: processes,
# TCP, lease expiry, retry, journal.
fleet-smoke: bin
	./scripts/fleet_smoke.sh
