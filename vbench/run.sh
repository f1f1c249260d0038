#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   sh vbench/run.sh --workload offline-table3 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, stores and traces.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C vbench build -o "$out/vbench" .
exec "$out/vbench" "$@"
