#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# the build and the run write — Go's build cache, its temporary files, the
# two binaries, span dumps — goes under .bench_build in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$build/bin/scriptload" .)
cd "$root"
exec "$build/bin/scriptload" "$@"
