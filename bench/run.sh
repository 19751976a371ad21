#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the harness from the checkout's
# source into <checkout>/.bench_build (toolchain cache and scratch included,
# so nothing is written outside the checkout), then hands over to it:
#   bash bench/run.sh --workload hot_read --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
