#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# The binary and everything the go command writes while building it
# (build cache, its own usage counters under XDG_CONFIG_HOME) stay inside
# the checkout, under .bench_build/, so a run reads and writes nothing
# outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$here" && GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
