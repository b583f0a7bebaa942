#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it. Run
# it from the repository root:
#
#   bash perfbench/run.sh --workload sim-steady-10k --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare BASE_DIR HEAD_DIR
#
# Everything the build writes (Go build cache, module cache, binary)
# stays in .bench_build/ under the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
