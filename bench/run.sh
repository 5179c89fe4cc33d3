#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout, then run it with the arguments given
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the go command writes (build cache, its own settings) is kept
# under .bench_build in the checkout, so nothing outside the checkout is
# touched. Go's telemetry is switched off in that private config directory
# first: with a fresh one the go command otherwise starts a detached
# telemetry child that outlives it, and a run must leave no process behind.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home/.config/go/telemetry"
echo off >"$build/home/.config/go/telemetry/mode"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	go build -o "$build/webbench" ./bench
exec "$build/webbench" "$@"
