#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#	bash benchmark/run.sh --workload apache-requests --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build writes
# (the Go build cache and the binary) stays under $CARGO_TARGET_DIR,
# default .bench_build, inside the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go -C "$root/benchmark" build -o "$out/rcgo-bench" .
exec "$out/rcgo-bench" "$@"
