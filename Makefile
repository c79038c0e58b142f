GO ?= go

# Tier-3 knobs: seeds per cell of the torture matrix and the per-target
# budget for the native fuzz targets.
TORTURE_ITERS ?= 50
FUZZTIME ?= 10s
# How long each layer microbenchmark runs; CI passes 1x.
MICROBENCHTIME ?= 1s

.PHONY: all tier1 tier2 tier3 bench-test bench-check microbench bench-smoke obs-smoke loc

all: tier1

# Tier-1: the acceptance gate every change must keep green.
tier1:
	$(GO) build ./... && $(GO) test ./...

# The benchmark driver's own tests (bench/ is a separate module that
# `go test ./...` at the root does not reach).
bench-test:
	$(GO) -C bench test ./...

# The modelled system as a golden: one short single-client simulated
# run per device (3D XPoint, SATA flash), compared exactly against
# internal/experiments/testdata/sim_golden.txt — flush, compaction and
# WAL-sync counts, stall time, and virtual-time Put/Get p50/p99. A
# change that moves it changes the system the figures are drawn from;
# regenerate with `go test ./internal/experiments -run TestSimGolden
# -update` only when that is the point, and say why.
bench-check:
	$(GO) test ./internal/experiments -run '^TestSimGolden$$' -count=1

# Layer microbenchmarks (ns/op, B/op, allocs/op) under the write and
# read paths: skiplist Insert and Get at 4k and 64k entries, MemFS
# append (1 KiB records and one write, 4 MiB), 4 KiB ReadAt and a small
# file, an SST Get with every block cached and a full table scan (64k
# entries), a memtable-hit and a cached-block Get through the engine,
# and an empty store's Open + Close. These are what a change to one of
# those layers quotes, parent against change; end-to-end numbers come
# from bench/ (`bash bench/run.sh`).
microbench:
	$(GO) test -run '^$$' -bench . -benchtime $(MICROBENCHTIME) \
		./internal/skiplist ./internal/vfs ./internal/sstable ./internal/engine

# Code size per package and in total (non-blank, non-comment lines of
# non-test and test Go outside bench/), then the engine.Options field
# count and the dbbench flag count: the measures a simplicity PR
# quotes. Informational, no threshold.
loc:
	bash scripts/loc.sh

# Tier-2: vet plus the full suite under the race detector. Exercises
# the concurrent metrics/snapshot/event paths (see
# internal/engine/observe_test.go and internal/events).
tier2:
	$(GO) vet ./... && $(GO) test -race ./...

# Tier-3: crash-consistency and robustness. Runs the seeded torture
# matrix — every nemesis (crash, transient, bitrot, enospc) against
# every store (engine, sharded), TORTURE_ITERS seeds per cell; the
# matrix and each nemesis's contract are documented once, in the
# internal/torture package comment. A failing seed prints its repro
# command (`go run ./cmd/torture -seed N -nemesis M -shards S`). Also
# runs a bounded pass of every native fuzz target over the committed
# corpora (regenerate with `go run ./cmd/genfuzzcorpus`).
tier3:
	$(GO) test ./internal/torture -run TestTorture -count=1 -timeout 30m \
		-args -torture.iters=$(TORTURE_ITERS)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzReadRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWriterReaderRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sstable -run '^$$' -fuzz '^FuzzBlockIter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sstable -run '^$$' -fuzz '^FuzzTableReader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/batch -run '^$$' -fuzz '^FuzzFromRepr$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/manifest -run '^$$' -fuzz '^FuzzDecodeEdit$$' -fuzztime $(FUZZTIME)

# Smoke runs of dbbench on the simulated 3D XPoint device, short enough
# for CI. They catch hangs, leak-counter failures at Close and gross
# regressions; numbers come from bench/ (`bash bench/run.sh`), not here.
#   1. mixed: concurrent reader and writer pools on the bare engine,
#      the shape the SuperVersion read path is built for.
#   2. the same on 4 range shards (shared cache/pool/controller).
#   3. a zipfian hot-shard run: skewed load lands on shard 0 while the
#      shared stall budget leaves cold shards unthrottled.
#   4. fillrandom at max_subcompactions 4, failing unless the stats
#      report's xpointdb_compaction_subcompactions_total line shows the
#      fan-out actually split a compaction.
# Real-clock and simulated dbbench runs share one code path, so `-path
# DIR` in place of `-device xpoint` smokes the same body on the OS.
bench-smoke:
	$(GO) run ./cmd/dbbench -device xpoint -benchmarks mixed -threads 8 -duration 5s
	$(GO) run ./cmd/dbbench -device xpoint -shards 4 -benchmarks mixed -threads 8 -duration 3s
	$(GO) run ./cmd/dbbench -device xpoint -shards 4 -hot_shard_skew 1.3 \
		-benchmarks readrandomwriterandom -threads 8 -duration 2s -num 8000
	$(GO) run ./cmd/dbbench -device xpoint -benchmarks fillrandom -threads 8 -duration 2s -num 12000 \
		-max_subcompactions 4 -stats | tee /dev/stderr | grep -E '^xpointdb_compaction_subcompactions_total [1-9]' >/dev/null

# Ops-plane smoke: run dbbench on a real directory with -serve and
# curl every HTTP endpoint (/healthz, /metrics, /stats, /events SSE,
# the dashboard page) while the benchmark is live — once on the bare
# engine, once with -shards 4, against the same metric families.
obs-smoke:
	bash scripts/obs_smoke.sh
