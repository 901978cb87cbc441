#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# leaves behind — binary, Go build cache, temp files — stays under
# .bench_build/ in the checkout this is run from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/menos-perf" .
exec "$build/menos-perf" "$@"
