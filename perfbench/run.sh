#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout; every argument goes to the benchmark, for example
#
#   bash perfbench/run.sh --workload dram-stream --seed 1 --seconds 20 --trace 0
#
# The Go toolchain keeps its build cache, temporary files and settings
# under .bench_build in the checkout, and never reaches for the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
go build -C "$(dirname "$0")" -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
