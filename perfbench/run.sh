#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload recal --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, per-run store directories and span dumps) lands in
# .bench_build/ under the current directory. A failed build exits
# non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's caches and its telemetry counters in the checkout
# too, and never reach for the network.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --work "$out/work" "$@"
