#!/usr/bin/env bash
# Build nmperf once and run it: the one command BENCHMARK.json names.
#
#   bash benchmark/run.sh                      every workload, end-to-end pass then traced pass
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                              one pass of one workload; the last line of
#                                              standard output is the result as one JSON object
#
# Everything it writes stays under .bench_build/ at the root of the
# checkout: the Go build cache, the binary, shmfab's ring files (TMPDIR),
# results.json and spans.json.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C benchmark -o "$build/nmperf" .
exec "$build/nmperf" -out "$build/results.json" -spans "$build/spans.json" "$@"
