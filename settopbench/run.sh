#!/usr/bin/env bash
# Builds the settop-level benchmark from this checkout's sources and runs
# it, passing every argument through:
#
#   bash settopbench/run.sh --workload movie-churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  The binary, the Go build cache and any
# span file stay under .bench_build/ there; the build needs no network.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off

(cd "$root/settopbench" && go build -o "$build/settopbench" .)
exec "$build/settopbench" "$@"
