# Developer entry points. `make check` is the gate for every change:
# build, vet, lint (pervalint + gofmt), and the full test suite under
# the race detector.

GO ?= go

.PHONY: check build vet lint test test-race fuzz-smoke race-live bench-obs bench-obs-smoke bench bench-pairs

check: build vet lint bench-obs-smoke test-race

# The full suite under the race detector, each test once: the
# determinism, live-stress, fault, shard and checker-tree regressions are
# ordinary tests of their packages. CI runs this in parallel with the lint
# job.
test-race:
	$(GO) test -race ./...

# Ten seconds of the native fuzzer on each of five targets. Three are
# differential: the incremental ground-truth scorer against
# world.TrueIntervals over fuzzed predicates and logs (DESIGN.md §1.1), the
# sparse strobe clock against the dense one over fuzzed interleavings of
# strobes and hostile stamps (DESIGN.md §1.10), and the flat checker's
# columnar view against a predicate.MapState model over fuzzed strobes —
# out-of-range processes, epoch bumps, stale seqs, race probes (DESIGN.md
# §1.1). Two feed arbitrary bytes to a decoder — the PVWL workload trace
# (FuzzWorkloadDecode) and the checker tree's sync batch with the stamp
# batch inside it (FuzzDecodeBatch): no panic, and whatever decodes
# re-encodes to bytes that decode to the same value. New inputs stay in the
# Go build cache; only a failing one is written under the package's
# testdata/fuzz.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTruthOracle -fuzztime=10s ./internal/world/
	$(GO) test -run='^$$' -fuzz=FuzzSparseOnStrobe -fuzztime=10s ./internal/clock/
	$(GO) test -run='^$$' -fuzz=FuzzCheckerView -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzWorkloadDecode -fuzztime=10s ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBatch -fuzztime=10s ./internal/checker/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants over the module-wide call graph
# (determinism + interprocedural taint, clock rules, fast paths,
# hot-path allocations, codec pairing, goroutine hygiene, atomics —
# see DESIGN.md §1.8) plus a gofmt gate. Suppressions use
# //lint:allow <analyzer>(<reason>); see cmd/pervalint.
# `pervalint -why file:line` explains a determtaint finding.
lint:
	$(GO) run ./cmd/pervalint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The live engine is the concurrency-heavy package; run it alone under
# the race detector when iterating on it.
race-live:
	$(GO) test -race -count=2 ./internal/live/...

# Observability overhead benchmarks (the bar is <5% DES-kernel slowdown;
# cmd/bench reports the end-to-end counterpart as obs.overhead_pct).
bench-obs:
	$(GO) test -run xxx -bench DESKernel -benchtime 1s -count 5 .

# One-iteration smoke of the same benchmarks: proves the instrumented
# and flight-recorder kernels still run (and the recorder captures
# events) without paying for a real measurement. Part of `make check`.
bench-obs-smoke:
	$(GO) test -run xxx -bench DESKernel -benchtime 1x .

# The repo's one benchmark (BENCHMARK.json: five workloads, six
# end-to-end metrics, per-layer drills, digest checks; see
# cmd/bench/README.md), then a one-iteration sweep proving every
# `go test` benchmark in the module still runs.
bench:
	bash cmd/bench/run.sh
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Paired evidence for a timing claim: commit OLD against the working tree
# on one WORKLOAD, PAIRS alternating pairs at SEED, medians, quartiles and
# pairs won per end-to-end metric (scripts/benchpairs.sh; a stopgap until
# `bench -alternate` exists).
#   make bench-pairs OLD=HEAD~1 WORKLOAD=fleet-wide [PAIRS=10] [SEED=1]
bench-pairs:
	bash scripts/benchpairs.sh $(OLD) $(WORKLOAD) $(or $(PAIRS),10) $(or $(SEED),1)
