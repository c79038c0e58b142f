#!/usr/bin/env bash
# Stress one torture cell under the race detector: build cmd/torture
# with -race once, then run the same seeded iteration RUNS times,
# PARALLEL copies at a time, so the copies load the machine and widen
# the scheduling windows a single run rarely hits. Prints the output of
# every failing run and exits non-zero if any failed.
#
#   scripts/tier2_stress.sh RUNS PARALLEL [cmd/torture flags...]
#   scripts/tier2_stress.sh 1000 6 -seed 4 -nemesis bitrot -shards 2
set -euo pipefail
cd "$(dirname "$0")/.."

runs="$1"; parallel="$2"; shift 2
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

go build -race -o "$workdir/torture" ./cmd/torture
export TORTURE="$workdir/torture" LOGS="$workdir"
seq "$runs" | xargs -P "$parallel" -I{} sh -c \
    '"$TORTURE" "$@" >"$LOGS/run-{}.log" 2>&1 || mv "$LOGS/run-{}.log" "$LOGS/fail-{}.log"' \
    sh "$@"

failed=0
for f in "$workdir"/fail-*.log; do
    [ -e "$f" ] || continue
    failed=$((failed + 1))
    echo "== $(basename "$f" .log) =="
    cat "$f"
done
echo "tier2-stress: $runs runs of cmd/torture $*, $failed failures"
[ "$failed" -eq 0 ]
