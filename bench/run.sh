#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments.
# Everything go writes — build cache, temp files, its own counters and
# settings, the binary — stays inside the checkout; a second call reuses
# the cache and relinks nothing when the sources are unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/layerbench" .
exec "$build/layerbench" "$@"
