#!/bin/bash
# What BENCHMARK.json's command runs: build the benchmark from the sources
# of the checkout this script lies in, then run it with the arguments given.
# Everything the build writes — the binary, Go's build cache unless the
# caller set GOCACHE, the compiler's temporary files — goes to .bench_build/
# at the checkout's root, so a run reads and writes nothing outside it.
set -eu
bench=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$bench")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/go-cache}" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$bench" -o "$build/ctxres-bench" .
cd "$bench"
exec "$build/ctxres-bench" "$@"
