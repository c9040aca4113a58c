#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash _perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# Every build product, the Go build and module caches, the go command's
# own configuration and telemetry, and the benchmark's scratch files stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local
go -C "$root/_perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build/work" "$@"
