#!/usr/bin/env bash
# Builds the benchmark from its own module and runs it with the caller's
# arguments. Everything the build writes (binary, Go build cache, temporary
# files) stays in .bench_build at the root of the checkout, so a run touches
# nothing outside it; a checkout whose GOCACHE is already set keeps it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/go-cache}" GOTMPDIR="$build/tmp"
cd "$root/benchmark"
go build -o "$build/leakbench" .
exec "$build/leakbench" "$@"
