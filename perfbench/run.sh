#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in (the root of the
# repository) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload kernel --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays inside the checkout: the Go build
# cache, the Go tool's own state and the binary under .bench_build/,
# stores and span files under .bench_out/. Without the simulator sources
# beside perfbench/ the build fails and the script exits non-zero before
# printing a result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
