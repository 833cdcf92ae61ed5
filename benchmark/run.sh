#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build the harness from source and
# run it, from the root of a checkout. Everything the build and the run leave
# behind — Go's build cache, the binary, unix sockets — goes under
# .bench_build in the checkout, so nothing outside it is written.
set -euo pipefail
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS=-buildvcs=false
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
