#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in $out too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=mod GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
