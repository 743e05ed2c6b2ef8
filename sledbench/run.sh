#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
#
#   bash sledbench/run.sh --workload rx --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the
# build's temporary files and the Go tool's own config and telemetry files
# go to .bench_build/ in that root, so nothing outside it is written; only
# the Go toolchain is read.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/sledbench" build -o "$out/sledbench" .
exec "$out/sledbench" "$@"
