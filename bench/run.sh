#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments (BENCHMARK.json's command). Everything the build and the run
# write stays under the checkout: .bench_build/ (Go's build cache, module
# path and telemetry counters included) and bench/out/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
cd "$here"
go build -o "$build/landlord-bench" .
exec "$build/landlord-bench" "$@"
