#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything Go writes (build cache, module cache,
# the binary) stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
bin="$out/xpointdb-bench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off
# Rebuild when the binary is missing or any Go source or go.mod is newer.
if [ ! -x "$bin" ] || [ -n "$(find "$root/bench" "$root/internal" "$root/go.mod" \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
  go -C "$root/bench" build -o "$bin" . >&2
fi
cd "$root"
exec "$bin" "$@"
