GO ?= go

# Tier-3 knobs: seeds per cell of the torture matrix and the per-target
# budget for the native fuzz targets.
TORTURE_ITERS ?= 50
FUZZTIME ?= 10s
# How long each layer microbenchmark runs; CI passes 1x.
MICROBENCHTIME ?= 1s

.PHONY: all tier1 tier2 tier3 bench-test bench-check microbench obs-smoke loc

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
# file, an SST Get with every block cached, a full table scan (64k
# entries) and a short cold scan that reads ahead (SeekGE + 25 Next,
# cache 1/16 of the table, reads/op), a memtable-hit and a cached-block
# Get through the engine, the cached-block Get from GOMAXPROCS
# goroutines (BenchmarkGetCachedSSTParallel), a latency histogram's
# Record from one goroutine and from GOMAXPROCS
# (BenchmarkHistogramRecord, BenchmarkHistogramRecordParallel),
# one L0→L1 compaction (ns and B per compacted entry), and an empty
# store's Open + Close. These are what a change to one of
# those layers quotes, parent against change; end-to-end numbers come
# from bench/ (`bash bench/run.sh`).
microbench:
	$(GO) test -run '^$$' -bench . -benchtime $(MICROBENCHTIME) \
		./internal/skiplist ./internal/vfs ./internal/sstable ./internal/histogram ./internal/engine

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

# Ops-plane smoke: run dbbench on a real directory with -serve and
# curl every HTTP endpoint (/healthz, /metrics, /stats, /events SSE,
# the dashboard page) while the benchmark is live — once on the bare
# engine, once with -shards 4, against the same metric families.
obs-smoke:
	bash scripts/obs_smoke.sh
