#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload advise --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache and scratch files stay in the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export CARGO_TARGET_DIR="$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
