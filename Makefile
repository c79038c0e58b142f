GO ?= go

# Tier-3 knobs: seeds per cell of the torture matrix and the per-target
# budget for the native fuzz targets.
TORTURE_ITERS ?= 50
FUZZTIME ?= 10s

.PHONY: all tier1 tier2 tier3 bench-test bench-observability bench-smoke bench-sharded-smoke bench-compaction-smoke obs-smoke

all: tier1

# Tier-1: the acceptance gate every change must keep green.
tier1:
	$(GO) build ./... && $(GO) test ./...

# The benchmark driver's own tests (bench/ is a separate module that
# `go test ./...` at the root does not reach).
bench-test:
	$(GO) -C bench test ./...

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

# A quick mixed-workload sanity run on the simulated 3D XPoint device:
# concurrent reader and writer pools against one store, the shape the
# SuperVersion read path is optimized for. Short enough for CI; the
# full before/after numbers live in BENCH_superversion.json.
bench-smoke:
	$(GO) run ./cmd/dbbench -device xpoint -benchmarks mixed -threads 8 -duration 5s

# Sharded smoke: the range-sharded store on the simulated device —
# mixed workload across 4 shards (shared cache/pool/controller), then
# a zipfian hot-shard run showing the skewed load landing on shard 0
# while the shared stall budget leaves cold shards unthrottled. The
# full shards 1/4/8 matrix and the bare-vs-shards=1 overhead numbers
# live in BENCH_sharded.json.
bench-sharded-smoke:
	$(GO) run ./cmd/dbbench -device xpoint -shards 4 -benchmarks mixed -threads 8 -duration 3s
	$(GO) run ./cmd/dbbench -device xpoint -shards 4 -hot_shard_skew 1.3 \
		-benchmarks readrandomwriterandom -threads 8 -duration 2s -num 8000

# Compaction smoke: fillrandom on the simulated device at
# max_subcompactions 1 vs 4, printing the BENCH_compaction summary
# line (throughput, write-stall delay, post-window L0 drain) and
# failing if the fan-out run never split a compaction. The full
# device x fan-out matrix behind BENCH_compaction.json is
# scripts/bench_compaction.sh without --smoke.
bench-compaction-smoke:
	bash scripts/bench_compaction.sh --smoke

# Ops-plane smoke: run dbbench on a real directory with -serve and
# curl every HTTP endpoint (/healthz, /metrics, /stats, /events SSE,
# the dashboard page) while the benchmark is live — once on the bare
# engine, once with -shards 4, against the same metric families.
obs-smoke:
	bash scripts/obs_smoke.sh

# Re-measure the write-path instrumentation overhead recorded in
# BENCH_observability.json (fillrandom on the simulated device, bare
# vs. fully instrumented).
bench-observability:
	$(GO) run ./cmd/dbbench -device xpoint -benchmarks fillrandom -threads 4 -duration 30s
	$(GO) run ./cmd/dbbench -device xpoint -benchmarks fillrandom -threads 4 -duration 30s \
		-perf -stats -eventlog /tmp/xpointdb-bench.events
