#!/usr/bin/env bash
# Builds the benchmark and the two daemons from the checkout this script
# sits in, then runs the benchmark with the arguments it was given.
# Everything the build and the run write — Go's build cache included —
# stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bin/" . repro/cmd/spatialjoind repro/cmd/spatialjoinrouter
exec "$build/bin/bench" -bin "$build/bin" -tmp "$build/tmp" -out "$build/out" "$@"
