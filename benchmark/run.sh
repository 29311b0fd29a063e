#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it: the command of
# BENCHMARK.json. Everything it and the Go toolchain write (build cache,
# module cache, temporary files, telemetry, the binary, scratch data)
# goes under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
