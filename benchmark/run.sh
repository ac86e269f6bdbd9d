#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from source and runs
# it from the repository root. Everything the Go toolchain writes (build cache,
# work directories, telemetry) is kept under .bench_build/ in the checkout.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/jaaru-bench" .
exec "$build/jaaru-bench" "$@"
