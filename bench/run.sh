#!/usr/bin/env bash
# Entry point of the benchmark of record (see BENCHMARK.json and README.md):
# builds bench/ from source inside the checkout, then runs it from the
# checkout root. Everything the build and the run write stays under
# .bench_build/ there. In a directory without the repository's go.mod the
# build fails and nothing is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd "$here" && go build -o "$build/diabench" .)
cd "$root"
exec "$build/diabench" "$@"
