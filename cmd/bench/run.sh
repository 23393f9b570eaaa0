#!/usr/bin/env bash
# The command BENCHMARK.json names: build cmd/bench from source and run
# it with the arguments given, from the root of a checkout. Everything
# the build and the run leave behind goes under .bench_build/ — Go's
# build cache, scratch space, module path and configuration directory
# are pointed there so that the benchmark reads and writes only inside
# its checkout. GOMAXPROCS is dropped from the environment: the program
# refuses to start with it set, since every workload pins its own.
set -euo pipefail
unset GOMAXPROCS
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/bench" ./cmd/bench
exec "$out/bench" "$@"
