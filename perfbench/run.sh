#!/usr/bin/env bash
# Builds the host-clock benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sweep|pipeline|serving|device \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) and the span files of traced
# runs stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
