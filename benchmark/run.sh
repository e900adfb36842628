#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument passes through to the benchmark:
#
#   bash benchmark/run.sh --workload plan-drupal --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and the benchmark's scratch files
# all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"
# The go command writes only below $out: its caches, temporary files and,
# through HOME and XDG_CONFIG_HOME, its telemetry counters.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd "$src" && go build -o "$out/ripplebench" .)
exec "$out/ripplebench" "$@"
