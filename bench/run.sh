#!/usr/bin/env bash
# Builds the ssbench benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash bench/run.sh --workload daemon-ss --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, the generated inputs and the spans all
# live under .bench_build/ at the checkout root. The toolchain stays local
# and offline: the benchmark needs nothing but the standard library.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$build/ssbench" ./ssbench
cd "$root"
exec "$build/ssbench" "$@"
