#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it. Everything
# the build and the run write stays inside the checkout: the Go build
# cache and temporary files under .bench_build/, results under
# benchmark/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/benchmark" build -o "$build/harness" .
exec "$build/harness" -root "$root" "$@"
