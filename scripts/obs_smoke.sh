#!/usr/bin/env bash
# Ops-plane smoke test: start dbbench in real-clock mode with the HTTP
# ops server enabled, then exercise every endpoint with curl while the
# benchmark runs — /healthz must report ok, /metrics must expose the
# engine families, /stats must render them and the per-level table, /events
# must stream SSE frames, and the dashboard page must be served. The
# walk runs twice against the same family list: a bare engine, then a
# 4-shard store (whose per-shard samples carry the same family names).
# On each store's directory xpdump runs while dbbench serves it and
# again after dbbench exits, where it must print one live version per
# shard (one for the bare engine): an inspector that rewrote the
# MANIFEST under the engine would leave a store whose CURRENT names a
# deleted file, and one that cannot read a sharded root prints none. Exits non-zero on the first failure. (Checks use plain grep
# >/dev/null rather than grep -q: -q exits at the first match, the
# feeding echo/curl then dies of SIGPIPE, and pipefail would turn a
# successful match into a flaky failure.)
set -euo pipefail

workdir="$(mktemp -d)"
benchpid=""
trap 'kill "$benchpid" 2>/dev/null || true; wait "$benchpid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== building dbbench and xpdump =="
go build -o "$workdir/dbbench" ./cmd/dbbench
go build -o "$workdir/xpdump" ./cmd/xpdump

# walk NAME SHARDS [dbbench flags...]: one benchmark run with every
# endpoint exercised while it is live; SHARDS is the number of live
# versions xpdump must print afterwards.
walk() {
    name="$1"; shards="$2"; shift 2
    dblog="$workdir/$name.log"
    echo "== [$name] starting benchmark with -serve =="
    "$workdir/dbbench" -path "$workdir/$name" -threads 4 -duration 20s \
        -serve 127.0.0.1:0 -slowop 2ms -eventlog "$workdir/$name.jsonl" "$@" \
        >"$dblog" 2>&1 &
    benchpid=$!

    # The ephemeral port is printed as "ops plane on http://ADDR".
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/.*ops plane on http:\/\/\([0-9.:]*\).*/\1/p' "$dblog" | head -1)"
        [ -n "$addr" ] && break
        kill -0 "$benchpid" 2>/dev/null || { echo "dbbench died:"; cat "$dblog"; exit 1; }
        sleep 0.2
    done
    [ -n "$addr" ] && echo "ops plane at $addr" || { echo "no ops-plane address in log"; cat "$dblog"; exit 1; }

    echo "== /healthz =="
    health="$(curl -sf "http://$addr/healthz")"
    echo "$health"
    echo "$health" | grep '"ok":true' >/dev/null || { echo "FAIL: not healthy"; exit 1; }

    echo "== /metrics =="
    metrics="$(curl -sf "http://$addr/metrics")"
    for family in xpointdb_ops_total xpointdb_get_latency_seconds_bucket \
                  xpointdb_level_files xpointdb_flushes_total \
                  xpointdb_scrub_passes_total xpointdb_events_dropped_total; do
        echo "$metrics" | grep "^$family" >/dev/null || { echo "FAIL: $family missing"; exit 1; }
    done
    echo "$(echo "$metrics" | grep -c '^xpointdb') xpointdb samples exposed"

    echo "== /stats =="
    stats="$(curl -sf "http://$addr/stats")"
    echo "$stats" | grep 'Per-level compaction stats' >/dev/null || { echo "FAIL: no per-level table"; exit 1; }
    # The metrics section renders the /metrics tables under the same names.
    echo "$stats" | grep '^xpointdb_ops_total [1-9]' >/dev/null || { echo "FAIL: no rendered xpointdb_ops_total"; exit 1; }
    echo "$stats" | sed -n '/Per-level/,$p' | head -8

    echo "== /events (3s of SSE) =="
    frames="$(curl -sN -m 3 "http://$addr/events" || true)"
    echo "$frames" | grep '^event: ' >/dev/null || { echo "FAIL: no SSE frames"; exit 1; }
    echo "$frames" | grep '^event: ' | sort | uniq -c | sort -rn | head -5

    echo "== / (dashboard) =="
    curl -sf "http://$addr/" | grep -i '<html' >/dev/null || { echo "FAIL: no dashboard page"; exit 1; }

    echo "== xpdump on the live store =="
    "$workdir/xpdump" -db "$workdir/$name" | tail -3 || { echo "FAIL: xpdump on the live store"; exit 1; }

    echo "== waiting for benchmark to finish =="
    wait "$benchpid"
    tail -3 "$dblog"

    echo "== xpdump after dbbench exits =="
    dump="$("$workdir/xpdump" -db "$workdir/$name")" || { echo "FAIL: xpdump after exit"; echo "$dump"; exit 1; }
    versions="$(echo "$dump" | grep -c '^live version' || true)"
    [ "$versions" = "$shards" ] || { echo "FAIL: $versions live versions, want $shards"; echo "$dump"; exit 1; }
    echo "$dump" | sed -n '/^live version/,$p' | head -4
}

walk bare 1
walk sharded 4 -shards 4
echo "OK: ops plane smoke passed on both stores"
