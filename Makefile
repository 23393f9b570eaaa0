# Developer entry points. `make check` is the gate for every change:
# build, vet, lint (pervalint + gofmt), the full test suite under the
# race detector, and the sharded kernel's crew tests at GOMAXPROCS 1 and 4.

GO ?= go

.PHONY: check build vet lint loc test test-race test-shards fuzz-smoke race-live bench-obs bench-smoke bench bench-pairs tables-diff

check: build vet lint bench-smoke test-race test-shards

# The full suite under the race detector, each test once: the
# determinism, live-stress, fault, shard and checker-tree regressions are
# ordinary tests of their packages. CI runs this in parallel with the lint
# job.
test-race:
	$(GO) test -race ./...

# The sharded kernel's crew tests — determinism across shard and worker
# counts, a handler panic on a helper, no goroutine outliving a run, a
# crew with fewer processors than members, the allocation-free epoch —
# and every shard/worker regression of the transport, harness and scale
# scenario, three times under the race detector, once on one processor
# (no helper starts; the alloc test's crew runs on one) and once on four
# (more members than this box may have cores).
test-shards:
	GOMAXPROCS=1 $(GO) test -race -count=3 -timeout 5m -run 'Shard|Worker|Crew' ./internal/sim/ ./internal/network/ ./internal/core/ ./internal/scenario/
	GOMAXPROCS=4 $(GO) test -race -count=3 -timeout 5m -run 'Shard|Worker|Crew' ./internal/sim/ ./internal/network/ ./internal/core/ ./internal/scenario/

# Ten seconds of the native fuzzer on each of fourteen targets. Six are
# differential: the incremental ground-truth scorer against
# world.TrueIntervals over fuzzed predicates and logs (DESIGN.md §1.1), the
# sparse strobe clock against the dense test reference over fuzzed interleavings of
# strobes and hostile stamps (DESIGN.md §1.10), the flat checker's
# columnar view against a map-backed model over fuzzed strobes —
# out-of-range processes, epoch bumps, stale seqs, race probes — with
# checker trees at R = 1, 2 and n held to the flat checker in the
# race-aware, race-blind and naive modes (FuzzCheckerView, DESIGN.md
# §1.1) — lattice.Survey's one walk against the recursive enumerator
# over fuzzed executions, narrow and too wide for one machine word, with
# empty processes and dangling or overclaiming stamps (DESIGN.md §1.6), and
# workload.Sort's time-bucket sort against sort.SliceStable over fuzzed
# counts, spreads and tie densities (FuzzSort, DESIGN.md §1.12), and the
# relative timing relations and their one-to-one session matching against a
# per-instant reading of world.TrueIntervals spans over fuzzed toggles and
# specs (FuzzTimingOracle, DESIGN.md §1.2). One is a property: every interval
# set the conjunctive checker matches, over fuzzed strobe executions and
# out-of-order, repeated and late deliveries, satisfies its modality
# (FuzzConjunctiveSoundness). Seven feed arbitrary input to a
# parser — the PVWL workload trace (FuzzWorkloadDecode), the workload
# spec `pervasim -workload` reads, each spec it accepts materialized
# (FuzzWorkloadSpec), the checker
# tree's sync batch with the stamp batch inside it (FuzzDecodeBatch), the
# -faults plan grammar (FuzzFaultsParse), the JSONL flight dump
# tracedump reads, as a flight-recorder flush (FuzzDecodeJSONL) and as a
# run record with vector stamps (FuzzDecodeRunRecord), and the predicate
# language
# (FuzzPredicateParse): no panic, allocation bounded by the input's
# length, and whatever parses re-encodes to a fixed point.
# New inputs stay in the Go build cache; only a failing one is written
# under the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTruthOracle -fuzztime=10s ./internal/world/
	$(GO) test -run='^$$' -fuzz=FuzzSparseOnStrobe -fuzztime=10s ./internal/clock/
	$(GO) test -run='^$$' -fuzz=FuzzCheckerView -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzConjunctiveSoundness -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzSurveyOracle -fuzztime=10s ./internal/lattice/
	$(GO) test -run='^$$' -fuzz=FuzzWorkloadDecode -fuzztime=10s ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzWorkloadSpec -fuzztime=10s ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzSort -fuzztime=10s ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBatch -fuzztime=10s ./internal/checker/
	$(GO) test -run='^$$' -fuzz=FuzzFaultsParse -fuzztime=10s ./internal/faults/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeJSONL -fuzztime=10s ./internal/flight/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRunRecord -fuzztime=10s ./internal/flight/
	$(GO) test -run='^$$' -fuzz=FuzzPredicateParse -fuzztime=10s ./internal/predicate/
	$(GO) test -run='^$$' -fuzz=FuzzTimingOracle -fuzztime=10s ./internal/timing/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants over the module-wide call graph: five
# analyzers (determinism with its interprocedural taint, clock rules,
# fast paths, hot-path allocations, and testonly: no code under
# internal/ that no main, init or root-package API reaches — see
# DESIGN.md §1.8) plus a gofmt gate. Exits 1 on any finding, an unused or duplicate allow
# included. Suppressions use //lint:allow <analyzer>(<reason>); see
# cmd/pervalint. `pervalint -why file:line` explains a boundary crossing.
lint:
	$(GO) run ./cmd/pervalint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# The size scoreboard (ROADMAP item 2): non-test Go lines, the benchmark's
# build directory left out, and the non-test //lint:allow waivers outside
# the linter's own package and fixtures. CI's lint job prints both.
loc:
	@echo "non-test Go lines: $$(find . -path ./.bench_build -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "non-test //lint:allow: $$(grep -rn '//lint:allow [a-z]*(' --include='*.go' . | grep -v '_test.go' | grep -v '/testdata/' | grep -v '^./internal/analysis/' | grep -v '^./.bench_build' | wc -l)"

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

# One iteration of every `go test` benchmark in the module (≈ 7 s on
# 2 vCPUs): proves each still runs — the instrumented and flight-recorder
# kernels, the clock benchmarks that reach into the sparse component
# layout, and the sharded fleet's build (allocs/op and B/op at N = 4096
# and 65 536) — without paying for a real measurement. Part of `make check`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repo's one benchmark (BENCHMARK.json: five workloads, six
# end-to-end metrics, per-layer drills, digest checks; see
# cmd/bench/README.md), then `make bench-smoke`.
bench:
	bash cmd/bench/run.sh
	$(MAKE) bench-smoke

# Paired evidence for a timing claim: commit OLD against the working tree
# on one WORKLOAD, PAIRS alternating pairs at SEED, medians, quartiles and
# pairs won per end-to-end metric (scripts/benchpairs.sh; a stopgap until
# `bench -alternate` exists).
#   make bench-pairs OLD=HEAD~1 WORKLOAD=fleet-wide [PAIRS=10] [SEED=1]
bench-pairs:
	bash scripts/benchpairs.sh $(OLD) $(WORKLOAD) $(or $(PAIRS),10) $(or $(SEED),1)

# Every table byte-identical to BASE's: cmd/experiments -run all -ablations,
# quick and full, at -p 1 and -p 2, built from a `git archive` of BASE in
# a temporary directory and from the working tree (scripts/tablesdiff.sh;
# ~10 s, writes nothing inside the checkout). The bar for a change that
# claims no table moves.
#   make tables-diff BASE=HEAD~1
tables-diff:
	bash scripts/tablesdiff.sh $(BASE)
