#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 20 --trace 0
#
# The build, its Go caches and every file a run writes stay under
# .bench_build/ in the checkout. Without the repository around this
# directory the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
