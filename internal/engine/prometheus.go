package engine

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"xpointdb/internal/bgpool"
	"xpointdb/internal/cache"
	"xpointdb/internal/histogram"
	"xpointdb/internal/obs"
	"xpointdb/internal/throttle"
)

// family declares one exported metric family: its wire name (under the
// xpointdb_ prefix, durations in seconds), help text, Prometheus type
// and how to read it from a source S — one unlabelled value, or points
// for several labelled samples or histogram series. The tables below
// are the only place a family is named; WriteMetrics is a loop over
// them. Adding a counter is one Metrics field and one line in
// engineFamilies; TestMetricsComplete fails for a Metrics field no
// entry reads, TestMetricsCatalogue records the wire change.
type family[S any] struct {
	name, help, typ string
	value           func(S) float64
	points          func(S) []point
}

// point is one sample (v) or one histogram series (h) of a family.
type point struct {
	labels string
	v      float64
	h      *histogram.Histogram
}

func counter[S any](name, help string, v func(S) float64) family[S] {
	return family[S]{name: name, help: help, typ: "counter", value: v}
}

func gauge[S any](name, help string, v func(S) float64) family[S] {
	return family[S]{name: name, help: help, typ: "gauge", value: v}
}

func histo(name, help string, h func(*Metrics) *histogram.Histogram) family[*scrape] {
	return family[*scrape]{name: name, help: help, typ: "histogram",
		points: func(e *scrape) []point { return []point{{h: h(e.m)}} }}
}

// perLevel is one column of the per-level stats table: a sample per
// LSM level under a level label.
func perLevel(name, help, typ string, v func(LevelStats) float64) family[*scrape] {
	return family[*scrape]{name: name, help: help, typ: typ, points: func(e *scrape) []point {
		pts := make([]point, len(e.levels))
		for i, l := range e.levels {
			pts[i] = point{labels: fmt.Sprintf(`level="%d"`, l.Level), v: v(l)}
		}
		return pts
	}}
}

// scrape is one engine's state, read once per exposition.
type scrape struct {
	db     *DB
	m      *Metrics
	levels []LevelStats
}

// engineFamilies are the facts each engine owns. A sharded store emits
// them once per shard under a shard label, same names.
var engineFamilies = []family[*scrape]{
	gauge("xpointdb_uptime_seconds", "Engine-clock seconds since open.", func(e *scrape) float64 { return e.m.clk.Now().Sub(e.m.start).Seconds() }),
	{name: "xpointdb_health", help: "1 when healthy; the state label carries the detail.", typ: "gauge",
		points: func(e *scrape) []point {
			h, healthy := e.db.Health(), 0.0
			if h == Healthy {
				healthy = 1
			}
			return []point{{labels: fmt.Sprintf(`state="%s"`, h), v: healthy}}
		}},

	// Operation counts and end-to-end latency distributions.
	counter("xpointdb_ops_total", "Operations served (gets + write calls).", func(e *scrape) float64 { return float64(e.m.GetLatency.Count() + e.m.WriteLatency.Count()) }),
	counter("xpointdb_write_ops_total", "Write (Apply) calls committed.", func(e *scrape) float64 { return float64(e.m.WriteLatency.Count()) }),
	histo("xpointdb_get_latency_seconds", "End-to-end Get latency.", func(m *Metrics) *histogram.Histogram { return &m.GetLatency }),
	histo("xpointdb_write_latency_seconds", "End-to-end Apply latency, including throttling and stalls.", func(m *Metrics) *histogram.Histogram { return &m.WriteLatency }),
	histo("xpointdb_wal_group_latency_seconds", "WAL append+sync latency per commit group.", func(m *Metrics) *histogram.Histogram { return &m.WALLatency }),

	// Background-stage latency distributions.
	histo("xpointdb_flush_latency_seconds", "Memtable flush duration (build + install).", func(m *Metrics) *histogram.Histogram { return &m.FlushLatency }),
	histo("xpointdb_compaction_latency_seconds", "Compaction duration (read, merge, write, install).", func(m *Metrics) *histogram.Histogram { return &m.CompactionLatency }),
	histo("xpointdb_wal_sync_latency_seconds", "WAL fsync duration.", func(m *Metrics) *histogram.Histogram { return &m.WALSyncLatency }),
	histo("xpointdb_scrub_pass_latency_seconds", "Background scrub full-pass duration.", func(m *Metrics) *histogram.Histogram { return &m.ScrubPassLatency }),

	// Per-operation stage breakdowns, one family with path/stage labels.
	{name: "xpointdb_stage_seconds", help: "Per-operation stage latency from PerfContext (only ops that exercised the stage).", typ: "histogram",
		points: func(e *scrape) []point {
			var pts []point
			for _, st := range writeStages {
				pts = append(pts, point{labels: fmt.Sprintf(`path="write",stage="%s"`, st.name), h: st.hist(e.m)})
			}
			for _, st := range readStages {
				pts = append(pts, point{labels: fmt.Sprintf(`path="get",stage="%s"`, st.name), h: st.hist(e.m)})
			}
			return pts
		}},
	counter("xpointdb_perf_write_ops_total", "Writes with stage timing collected.", func(e *scrape) float64 { return float64(e.m.PerfWriteOps.Load()) }),
	counter("xpointdb_perf_read_ops_total", "Gets with stage timing collected.", func(e *scrape) float64 { return float64(e.m.PerfReadOps.Load()) }),

	// Stalls and the write queue.
	counter("xpointdb_stall_delay_seconds_total", "Foreground seconds spent in controller delays.", func(e *scrape) float64 { return time.Duration(e.m.StallDelayTotal.Load()).Seconds() }),
	counter("xpointdb_stall_stop_seconds_total", "Foreground seconds blocked on stop conditions.", func(e *scrape) float64 { return time.Duration(e.m.StallStopTotal.Load()).Seconds() }),
	counter("xpointdb_stall_stops_total", "Stop-stall episodes.", func(e *scrape) float64 { return float64(e.m.StallStops.Load()) }),
	gauge("xpointdb_waiting_writers", "Current write-queue depth.", func(e *scrape) float64 { return float64(e.m.WaitingWriters.Current()) }),

	// Background work.
	counter("xpointdb_flushes_total", "Completed memtable flushes.", func(e *scrape) float64 { return float64(e.m.Flushes.Load()) }),
	counter("xpointdb_flush_bytes_total", "Bytes written to Level 0 by flushes.", func(e *scrape) float64 { return float64(e.m.FlushBytes.Load()) }),
	counter("xpointdb_compactions_total", "Completed compactions.", func(e *scrape) float64 { return float64(e.m.Compactions.Load()) }),
	counter("xpointdb_compaction_read_bytes_total", "Compaction input bytes read.", func(e *scrape) float64 { return float64(e.m.CompactionBytesRead.Load()) }),
	counter("xpointdb_compaction_written_bytes_total", "Compaction output bytes written.", func(e *scrape) float64 { return float64(e.m.CompactionBytesWritten.Load()) }),
	counter("xpointdb_compaction_entries_merged_total", "Entries merged by compactions.", func(e *scrape) float64 { return float64(e.m.CompactionEntriesMerged.Load()) }),
	counter("xpointdb_compaction_trivial_moves_total", "Input files moved down a level without any data I/O.", func(e *scrape) float64 { return float64(e.m.TrivialMoves.Load()) }),
	counter("xpointdb_compaction_subcompactions_total", "Sub-compaction ranges executed by parallelized jobs.", func(e *scrape) float64 { return float64(e.m.Subcompactions.Load()) }),

	// The per-level stats table, each column one labelled family.
	perLevel("xpointdb_level_files", "Current SST files in the level.", "gauge", func(l LevelStats) float64 { return float64(l.Files) }),
	perLevel("xpointdb_level_bytes", "Current SST bytes in the level.", "gauge", func(l LevelStats) float64 { return float64(l.Bytes) }),
	perLevel("xpointdb_level_score", "Compaction urgency (>=1 wants compaction).", "gauge", func(l LevelStats) float64 { return l.Score }),
	perLevel("xpointdb_level_compactions_total", "Jobs writing into the level (flushes for level 0).", "counter", func(l LevelStats) float64 { return float64(l.Compactions) }),
	perLevel("xpointdb_level_ingested_bytes_total", "Bytes arriving into the level from above.", "counter", func(l LevelStats) float64 { return float64(l.BytesIngested) }),
	perLevel("xpointdb_level_read_bytes_total", "Compaction input bytes read for jobs into the level.", "counter", func(l LevelStats) float64 { return float64(l.BytesRead) }),
	perLevel("xpointdb_level_written_bytes_total", "Bytes written into the level by flush/compaction.", "counter", func(l LevelStats) float64 { return float64(l.BytesWritten) }),
	perLevel("xpointdb_level_compaction_seconds_total", "Flush/compaction seconds spent writing into the level.", "counter", func(l LevelStats) float64 { return l.CompactionTime.Seconds() }),

	// SuperVersion lifecycle.
	counter("xpointdb_superversion_installs_total", "Read-path bundle swaps.", func(e *scrape) float64 { return float64(e.m.SuperVersionInstalls.Load()) }),
	counter("xpointdb_zombie_files_deleted_total", "SSTs reclaimed by the reference-driven sweep.", func(e *scrape) float64 { return float64(e.m.ZombieFilesDeleted.Load()) }),
	gauge("xpointdb_pinned_versions", "Versions alive (current + pinned by readers).", func(e *scrape) float64 { return float64(e.m.PinnedVersions.Current()) }),

	// Read-path shape.
	{name: "xpointdb_get_hits_total", help: "Gets resolved, by where the key was found.", typ: "counter",
		points: func(e *scrape) []point {
			return []point{
				{labels: `where="memtable"`, v: float64(e.m.GetHitMemtable.Load())},
				{labels: `where="immutable"`, v: float64(e.m.GetHitImmutable.Load())},
				{labels: `where="l0"`, v: float64(e.m.GetHitL0.Load())},
				{labels: `where="deep"`, v: float64(e.m.GetHitDeep.Load())},
			}
		}},
	counter("xpointdb_get_misses_total", "Gets that found nothing.", func(e *scrape) float64 { return float64(e.m.GetMisses.Load()) }),
	counter("xpointdb_l0_tables_probed_total", "Level-0 SST probes (read amplification).", func(e *scrape) float64 { return float64(e.m.L0TablesProbed.Load()) }),
	counter("xpointdb_bloom_skips_total", "SST probes short-circuited by a Bloom filter.", func(e *scrape) float64 { return float64(e.m.BloomSkips.Load()) }),
	counter("xpointdb_block_cache_perf_hits_total", "Block cache hits observed via PerfContext.", func(e *scrape) float64 { return float64(e.m.PerfBlockCacheHits.Load()) }),
	counter("xpointdb_block_cache_perf_misses_total", "Block cache misses observed via PerfContext.", func(e *scrape) float64 { return float64(e.m.PerfBlockCacheMisses.Load()) }),

	// WAL.
	counter("xpointdb_wal_syncs_total", "WAL fsyncs.", func(e *scrape) float64 { return float64(e.m.WALSyncs.Load()) }),
	counter("xpointdb_wal_sync_bytes_total", "Bytes made durable by WAL fsyncs.", func(e *scrape) float64 { return float64(e.m.WALSyncBytes.Load()) }),

	// Errors and recovery.
	counter("xpointdb_soft_errors_total", "Soft background-error episodes.", func(e *scrape) float64 { return float64(e.m.SoftErrors.Load()) }),
	counter("xpointdb_hard_errors_total", "Hard background-error latches.", func(e *scrape) float64 { return float64(e.m.HardErrors.Load()) }),
	counter("xpointdb_recovery_attempts_total", "Background-error recovery attempts.", func(e *scrape) float64 { return float64(e.m.RecoveryAttempts.Load()) }),
	counter("xpointdb_recovery_successes_total", "Recoveries that cleared the latch.", func(e *scrape) float64 { return float64(e.m.RecoverySuccesses.Load()) }),
	counter("xpointdb_recovery_giveups_total", "Recoveries that exhausted the budget.", func(e *scrape) float64 { return float64(e.m.RecoveryGiveups.Load()) }),

	// Space events (the byte gauges belong to the SpaceManager, below).
	counter("xpointdb_enospc_errors_total", "Disk-full errors hit by background work.", func(e *scrape) float64 { return float64(e.m.EnospcErrors.Load()) }),
	counter("xpointdb_space_deferrals_total", "Flush/compaction jobs deferred for lack of budget headroom.", func(e *scrape) float64 { return float64(e.m.SpaceDeferrals.Load()) }),
	counter("xpointdb_space_waits_total", "Wait-for-space probes that still found the disk full.", func(e *scrape) float64 { return float64(e.m.SpaceWaits.Load()) }),
	counter("xpointdb_space_recoveries_total", "Recoveries completed after a disk-full latch.", func(e *scrape) float64 { return float64(e.m.SpaceRecoveries.Load()) }),

	// Integrity.
	counter("xpointdb_scrub_passes_total", "Completed scrub passes.", func(e *scrape) float64 { return float64(e.m.ScrubPasses.Load()) }),
	counter("xpointdb_scrubbed_bytes_total", "Bytes read and verified by the scrubber.", func(e *scrape) float64 { return float64(e.m.ScrubbedBytes.Load()) }),
	counter("xpointdb_corruptions_detected_total", "Checksum failures observed.", func(e *scrape) float64 { return float64(e.m.CorruptionsDetected.Load()) }),
	counter("xpointdb_files_quarantined_total", "Files marked damaged in the manifest.", func(e *scrape) float64 { return float64(e.m.FilesQuarantined.Load()) }),
	counter("xpointdb_corruptions_repaired_total", "Quarantined files repaired with zero loss.", func(e *scrape) float64 { return float64(e.m.CorruptionsRepaired.Load()) }),
	counter("xpointdb_data_loss_events_total", "Files dropped with declared data loss.", func(e *scrape) float64 { return float64(e.m.DataLossEvents.Load()) }),

	counter("xpointdb_slow_ops_total", "Operations promoted to slow_op trace events.", func(e *scrape) float64 { return float64(e.m.SlowOps.Load()) }),

	// The engine's share of the background pool.
	gauge("xpointdb_bgpool_shard_waiting", "Background jobs from this shard waiting for a token.", func(e *scrape) float64 { w, _ := e.db.pool.TagStats(e.db.index); return float64(w) }),
	counter("xpointdb_bgpool_shard_grants_total", "Tokens granted to this shard since open.", func(e *scrape) float64 { _, g := e.db.pool.TagStats(e.db.index); return float64(g) }),
}

// The families below are the facts of a Shared's resources, exported
// once per store, unlabelled. The cache families are skipped without a
// cache; the space gauges read 0 without a budget, so dashboards see a
// stable metric set.

var cacheFamilies = []family[*cache.Cache]{
	gauge("xpointdb_block_cache_used_bytes", "Bytes resident in the block cache.", func(c *cache.Cache) float64 { return float64(c.Used()) }),
	counter("xpointdb_block_cache_hits_total", "Block cache hits.", func(c *cache.Cache) float64 { h, _ := c.Stats(); return float64(h) }),
	counter("xpointdb_block_cache_misses_total", "Block cache misses.", func(c *cache.Cache) float64 { _, m := c.Stats(); return float64(m) }),
}

var poolFamilies = []family[*bgpool.Pool]{
	gauge("xpointdb_bgpool_busy", "Background tokens currently held (all shards).", func(p *bgpool.Pool) float64 { busy, _, _ := p.Stats(); return float64(busy) }),
	gauge("xpointdb_bgpool_size", "Configured background token-pool size.", func(p *bgpool.Pool) float64 { return float64(p.Size()) }),
	gauge("xpointdb_bgpool_waiting", "Background jobs waiting for a token (all shards).", func(p *bgpool.Pool) float64 { _, waiting, _ := p.Stats(); return float64(waiting) }),
	counter("xpointdb_bgpool_grants_total", "Tokens granted since open (all shards).", func(p *bgpool.Pool) float64 { _, _, grants := p.Stats(); return float64(grants) }),
}

var controllerFamilies = []family[*throttle.Controller]{
	gauge("xpointdb_write_rate_bytes_per_second", "Current delayed-write rate.", func(c *throttle.Controller) float64 { return c.Rate() }),
	counter("xpointdb_delayed_ops_total", "Writes delayed by the controller.", func(c *throttle.Controller) float64 { _, ops, _ := c.Stats(); return float64(ops) }),
	counter("xpointdb_rate_adjustments_total", "Algorithm 1 rate steps on the controller.", func(c *throttle.Controller) float64 { _, _, adj := c.Stats(); return float64(adj) }),
}

// spaceBytes reads one SpaceManager gauge, 0 when no manager exists.
func spaceBytes(read func(*SpaceManager) int64) func(*SpaceManager) float64 {
	return func(sm *SpaceManager) float64 {
		if sm == nil {
			return 0
		}
		return float64(read(sm))
	}
}

var spaceFamilies = []family[*SpaceManager]{
	gauge("xpointdb_space_used_bytes", "Live engine file bytes (SSTs, WALs, MANIFEST).", spaceBytes((*SpaceManager).Used)),
	gauge("xpointdb_space_reserved_bytes", "Bytes reserved for in-flight flushes and compactions.", spaceBytes((*SpaceManager).Reserved)),
	gauge("xpointdb_space_budget_bytes", "Configured space budget (0 = unlimited).", spaceBytes((*SpaceManager).Budget)),
}

var hubFamilies = []family[*atomic.Int64]{
	counter("xpointdb_events_dropped_total", "Events dropped by the bounded sink queue.", func(n *atomic.Int64) float64 { return float64(n.Load()) }),
}

// WritePrometheus writes every engine counter, gauge and histogram to
// w in the Prometheus text exposition format (version 0.0.4) — the
// /metrics body of the ops plane. The output is validated structurally
// by the obs package's ParsePromText in the golden tests.
func (db *DB) WritePrometheus(w io.Writer) {
	WriteMetrics(w, []*DB{db}, false, db.shared)
}

// WriteMetrics is the one exporter: every per-engine family once, with
// one sample (or histogram series) per engine — under a shard="i" label
// when shardLabel is set, which is how a sharded store's exposition
// answers the same queries as a bare store's — then the shared
// resources' families once each.
func WriteMetrics(w io.Writer, dbs []*DB, shardLabel bool, shared *Shared) {
	pw := obs.PromWriter{W: w}
	scrapes := make([]*scrape, len(dbs))
	labels := make([]string, len(dbs))
	for i, db := range dbs {
		scrapes[i] = &scrape{db: db, m: db.metrics, levels: db.LevelStats().Levels}
		if shardLabel {
			labels[i] = fmt.Sprintf(`shard="%d"`, i)
		}
	}
	writeFamilies(pw, engineFamilies, scrapes, labels)
	writeFamilies(pw, poolFamilies, []*bgpool.Pool{shared.Pool}, nil)
	if shared.Blocks != nil {
		writeFamilies(pw, cacheFamilies, []*cache.Cache{shared.Blocks}, nil)
	}
	writeFamilies(pw, controllerFamilies, []*throttle.Controller{shared.Controller}, nil)
	writeFamilies(pw, spaceFamilies, []*SpaceManager{shared.Space}, nil)
	writeFamilies(pw, hubFamilies, []*atomic.Int64{&shared.EventsDropped}, nil)
}

// writeFamilies emits each family's header once, then every source's
// samples under that source's label (labels may be nil: none).
func writeFamilies[S any](pw obs.PromWriter, fams []family[S], srcs []S, labels []string) {
	for _, f := range fams {
		pw.Header(f.name, f.help, f.typ)
		for i, src := range srcs {
			label := ""
			if labels != nil {
				label = labels[i]
			}
			if f.value != nil {
				pw.Sample(f.name, label, f.value(src))
				continue
			}
			for _, pt := range f.points(src) {
				if pt.h != nil {
					pw.HistogramSeries(f.name, obs.JoinLabels(label, pt.labels), pt.h)
				} else {
					pw.Sample(f.name, obs.JoinLabels(label, pt.labels), pt.v)
				}
			}
		}
	}
}
