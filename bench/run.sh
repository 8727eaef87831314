#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root
# of a checkout:
#
#   bash bench/run.sh --workload star-dtime --seed 1 --seconds 20 --trace 0
#
# Every build cache, binary and scratch file goes under .bench_build/ in
# the checkout, so the benchmark reads and writes nothing outside it
# apart from the Go toolchain itself. The harness builds cmd/sweep and
# cmd/sweepd the same way (see bench/README.md).
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

go build -C bench -o "$out/bench-harness" .
exec "$out/bench-harness" "$@"
