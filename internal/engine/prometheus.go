package engine

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"xpointdb/internal/cache"
	"xpointdb/internal/histogram"
	"xpointdb/internal/obs"
	"xpointdb/internal/throttle"
)

// family declares one exported metric family: its wire name (under the
// xpointdb_ prefix, durations in seconds), help text, Prometheus type
// and how to read it from a source S — one unlabelled value, or points
// for several labelled samples or histogram series. The tables below
// are the only place a fact is named: /metrics (WriteMetrics) and the
// /stats section (WriteStats) are two sinks ranging over them. Adding a
// counter is one Metrics field and one line in engineFamilies;
// TestMetricsComplete fails for a Metrics field no entry reads or one
// that does not reach /stats, TestMetricsCatalogue records the wire
// change.
type family[S any] struct {
	desc
	value  func(S) float64
	points func(S) []point
}

// desc is what a sink needs of a family besides its points.
type desc struct {
	name, help, typ string
	// levels marks a per-level column: /stats renders those as the
	// per-level table, so the text sink leaves them out.
	levels bool
}

// point is one sample (v) or one histogram series (h) of a family.
type point struct {
	labels string
	v      float64
	h      *histogram.Histogram
}

func counter[S any](name, help string, v func(S) float64) family[S] {
	return family[S]{desc: desc{name: name, help: help, typ: "counter"}, value: v}
}

func gauge[S any](name, help string, v func(S) float64) family[S] {
	return family[S]{desc: desc{name: name, help: help, typ: "gauge"}, value: v}
}

func histo(name, help string, h func(*Metrics) *histogram.Histogram) family[*scrape] {
	return family[*scrape]{desc: desc{name: name, help: help, typ: "histogram"},
		points: func(e *scrape) []point { return []point{{h: h(e.m)}} }}
}

// perLevel is one column of the per-level stats table: a sample per
// LSM level under a level label.
func perLevel(name, help, typ string, v func(LevelStats) float64) family[*scrape] {
	return family[*scrape]{desc: desc{name: name, help: help, typ: typ, levels: true}, points: func(e *scrape) []point {
		pts := make([]point, len(e.levels))
		for i, l := range e.levels {
			pts[i] = point{labels: fmt.Sprintf(`level="%d"`, l.Level), v: v(l)}
		}
		return pts
	}}
}

// stateGauge is a gauge of one sample, 1, whose state label names the
// current state of a shared resource.
func stateGauge(name, help string, state func(*Shared) throttle.State) family[*Shared] {
	return family[*Shared]{desc: desc{name: name, help: help, typ: "gauge"}, points: func(sh *Shared) []point {
		return []point{{labels: fmt.Sprintf(`state="%s"`, state(sh)), v: 1}}
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
	{desc: desc{name: "xpointdb_health", help: "1 when healthy; the state label carries the detail.", typ: "gauge"},
		points: func(e *scrape) []point {
			h, healthy := e.db.Health(), 0.0
			if h == Healthy {
				healthy = 1
			}
			return []point{{labels: fmt.Sprintf(`state="%s"`, h), v: healthy}}
		}},

	// End-to-end latency distributions; their _count is the operation count.
	histo("xpointdb_get_latency_seconds", "End-to-end Get latency.", func(m *Metrics) *histogram.Histogram { return &m.GetLatency }),
	histo("xpointdb_write_latency_seconds", "End-to-end Apply latency, including throttling and stalls.", func(m *Metrics) *histogram.Histogram { return &m.WriteLatency }),
	histo("xpointdb_wal_group_latency_seconds", "WAL append+sync latency per commit group.", func(m *Metrics) *histogram.Histogram { return &m.WALLatency }),

	// Background-stage latency distributions; their _count is the job count.
	histo("xpointdb_flush_latency_seconds", "Memtable flush duration (build + install).", func(m *Metrics) *histogram.Histogram { return &m.FlushLatency }),
	histo("xpointdb_compaction_latency_seconds", "Compaction duration (read, merge, write, install).", func(m *Metrics) *histogram.Histogram { return &m.CompactionLatency }),
	histo("xpointdb_wal_sync_latency_seconds", "WAL fsync duration.", func(m *Metrics) *histogram.Histogram { return &m.WALSyncLatency }),
	histo("xpointdb_scrub_pass_latency_seconds", "Background scrub full-pass duration.", func(m *Metrics) *histogram.Histogram { return &m.ScrubPassLatency }),

	// Per-operation stage breakdowns, one family with path/stage labels.
	{desc: desc{name: "xpointdb_stage_seconds", help: "Per-operation stage latency from PerfContext (only ops that exercised the stage).", typ: "histogram"},
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
	gauge("xpointdb_waiting_writers_mean", "Time-weighted mean write-queue depth since open.", func(e *scrape) float64 { return e.m.WaitingWriters.Mean() }),
	gauge("xpointdb_waiting_writers_max", "Deepest write queue since open.", func(e *scrape) float64 { return float64(e.m.WaitingWriters.Max()) }),

	// Background work.
	gauge("xpointdb_memtable_budget_bytes", "Memtable size target in force (case study B retunes it).", func(e *scrape) float64 { return float64(e.db.MemtableBudget()) }),
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
	gauge("xpointdb_pinned_versions_max", "Most versions alive at once since open.", func(e *scrape) float64 { return float64(e.m.PinnedVersions.Max()) }),

	// Read-path shape.
	{desc: desc{name: "xpointdb_get_hits_total", help: "Gets resolved, by where the key was found.", typ: "counter"},
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

	// WAL.
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
	counter("xpointdb_space_waits_total", "Disk-full recovery attempts that still found no space.", func(e *scrape) float64 { return float64(e.m.SpaceWaits.Load()) }),
	counter("xpointdb_space_recoveries_total", "Recoveries completed after a disk-full latch.", func(e *scrape) float64 { return float64(e.m.SpaceRecoveries.Load()) }),

	// Integrity.
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
// cache; the space families read 0 (or clear) without a budget, so
// dashboards see a stable metric set.

var cacheFamilies = []family[*cache.Cache]{
	gauge("xpointdb_block_cache_used_bytes", "Bytes resident in the block cache.", func(c *cache.Cache) float64 { return float64(c.Used()) }),
	counter("xpointdb_block_cache_hits_total", "Block cache hits.", func(c *cache.Cache) float64 { h, _ := c.Stats(); return float64(h) }),
	counter("xpointdb_block_cache_misses_total", "Block cache misses.", func(c *cache.Cache) float64 { _, m := c.Stats(); return float64(m) }),
}

// spaceBytes reads one SpaceManager gauge, 0 when no manager exists.
func spaceBytes(read func(*SpaceManager) int64) func(*Shared) float64 {
	return func(sh *Shared) float64 {
		if sh.Space == nil {
			return 0
		}
		return float64(read(sh.Space))
	}
}

var sharedFamilies = []family[*Shared]{
	gauge("xpointdb_bgpool_busy", "Background tokens currently held (all shards).", func(sh *Shared) float64 { busy, _, _ := sh.Pool.Stats(); return float64(busy) }),
	gauge("xpointdb_bgpool_size", "Configured background token-pool size.", func(sh *Shared) float64 { return float64(sh.Pool.Size()) }),
	gauge("xpointdb_bgpool_waiting", "Background jobs waiting for a token (all shards).", func(sh *Shared) float64 { _, waiting, _ := sh.Pool.Stats(); return float64(waiting) }),
	counter("xpointdb_bgpool_grants_total", "Tokens granted since open (all shards).", func(sh *Shared) float64 { _, _, grants := sh.Pool.Stats(); return float64(grants) }),

	stateGauge("xpointdb_write_controller_state", "Stall state governing the delayed-write rate (1; the state label names it).", func(sh *Shared) throttle.State { return sh.Controller.CurrentState() }),
	gauge("xpointdb_write_rate_bytes_per_second", "Current delayed-write rate.", func(sh *Shared) float64 { return sh.Controller.Rate() }),
	counter("xpointdb_delayed_ops_total", "Writes delayed by the controller.", func(sh *Shared) float64 { _, ops, _ := sh.Controller.Stats(); return float64(ops) }),
	counter("xpointdb_rate_adjustments_total", "Algorithm 1 rate steps on the controller.", func(sh *Shared) float64 { _, _, adj := sh.Controller.Stats(); return float64(adj) }),

	stateGauge("xpointdb_space_state", "Space-budget degradation-ladder state (1; the state label names it; clear without a budget).", func(sh *Shared) throttle.State {
		if sh.Space == nil {
			return throttle.StateClear
		}
		return sh.Space.State()
	}),
	gauge("xpointdb_space_used_bytes", "Live engine file bytes (SSTs, WALs, MANIFEST).", spaceBytes((*SpaceManager).Used)),
	gauge("xpointdb_space_reserved_bytes", "Bytes reserved for in-flight flushes and compactions.", spaceBytes((*SpaceManager).Reserved)),
	gauge("xpointdb_space_budget_bytes", "Configured space budget (0 = unlimited).", spaceBytes((*SpaceManager).Budget)),

	counter("xpointdb_events_dropped_total", "Events dropped by the bounded sink queue.", func(sh *Shared) float64 { return float64(sh.EventsDropped.Load()) }),
}

// WritePrometheus writes every engine counter, gauge and histogram to
// w in the Prometheus text exposition format (version 0.0.4) — the
// /metrics body of the ops plane. The output is validated structurally
// by the obs package's ParsePromText in the golden tests.
func (db *DB) WritePrometheus(w io.Writer) {
	WriteMetrics(w, []*DB{db}, false, db.shared)
}

// WriteMetrics is the /metrics sink: every per-engine family once, with
// one sample (or histogram series) per engine — under a shard="i" label
// when shardLabel is set, which is how a sharded store's exposition
// answers the same queries as a bare store's — then the shared
// resources' families once each.
func WriteMetrics(w io.Writer, dbs []*DB, shardLabel bool, shared *Shared) {
	pw := obs.PromWriter{W: w}
	labels := make([]string, len(dbs))
	for i := range labels {
		if shardLabel {
			labels[i] = fmt.Sprintf(`shard="%d"`, i)
		}
	}
	writeTables(promSink{pw, labels}, promSink{pw, []string{""}}, dbs, shared)
}

// WriteStats is the /stats sink over the same tables: one line per
// series under its /metrics name — counters summed over dbs, with each
// engine's value in brackets when there are several; gauges listing
// each engine's value; histograms merged to n (each engine's count in
// brackets when there are several), mean and p99 — leaving
// out series whose values are all zero and the per-level columns.
// Shared may be nil: an engine that does not own its set leaves the
// shared resources to the store that does. The stage-share line closes
// the section.
func WriteStats(w io.Writer, dbs []*DB, shared *Shared) {
	if len(dbs) > 1 {
		fmt.Fprintf(w, "** Metrics: %d shards, store-wide [per shard] **\n", len(dbs))
	} else {
		fmt.Fprintln(w, "** Metrics **")
	}
	writeTables(textSink{w}, textSink{w}, dbs, shared)
	writeStageShare(w, dbs)
}

// writeTables hands every table to a sink: the engine families, one
// source per engine, to perEngine, then, when shared is set, the shared
// resources' families to once.
func writeTables(perEngine, once sink, dbs []*DB, shared *Shared) {
	scrapes := make([]*scrape, len(dbs))
	for i, db := range dbs {
		scrapes[i] = &scrape{db: db, m: db.metrics, levels: db.LevelStats().Levels}
	}
	writeFamilies(perEngine, engineFamilies, scrapes)
	if shared == nil {
		return
	}
	writeFamilies(once, sharedFamilies, []*Shared{shared})
	if shared.Blocks != nil {
		writeFamilies(once, cacheFamilies, []*cache.Cache{shared.Blocks})
	}
}

// sink receives one family at a time: its declaration and, for each
// source in order, the points read from it.
type sink interface {
	family(d desc, perSource [][]point)
}

func writeFamilies[S any](sk sink, fams []family[S], srcs []S) {
	for _, f := range fams {
		perSource := make([][]point, len(srcs))
		for i, src := range srcs {
			if f.value != nil {
				perSource[i] = []point{{v: f.value(src)}}
			} else {
				perSource[i] = f.points(src)
			}
		}
		sk.family(f.desc, perSource)
	}
}

// promSink writes the Prometheus exposition: a header per family, then
// each source's samples under that source's label ("" for none).
type promSink struct {
	pw     obs.PromWriter
	labels []string
}

func (s promSink) family(d desc, perSource [][]point) {
	s.pw.Header(d.name, d.help, d.typ)
	for i, pts := range perSource {
		for _, pt := range pts {
			labels := obs.JoinLabels(s.labels[i], pt.labels)
			if pt.h != nil {
				s.pw.HistogramSeries(d.name, labels, pt.h)
			} else {
				s.pw.Sample(d.name, labels, pt.v)
			}
		}
	}
}

// textSink writes the /stats lines (see WriteStats).
type textSink struct{ w io.Writer }

func (s textSink) family(d desc, perSource [][]point) {
	if d.levels {
		return
	}
	// Group the sources' points by series (label set), first-seen order.
	var keys []string
	series := map[string][]point{}
	for i, pts := range perSource {
		for _, pt := range pts {
			if _, ok := series[pt.labels]; !ok {
				keys = append(keys, pt.labels)
				series[pt.labels] = make([]point, len(perSource))
			}
			series[pt.labels][i] = pt
		}
	}
	for _, k := range keys {
		name := d.name
		if k != "" {
			name += "{" + k + "}"
		}
		s.series(d.typ, name, series[k])
	}
}

func (s textSink) series(typ, name string, pts []point) {
	if typ == "histogram" {
		var h histogram.Histogram
		counts := make([]string, len(pts))
		for i, pt := range pts {
			var n int64
			if pt.h != nil {
				// One snapshot of the source gives both its count and
				// what is merged, so the bracketed counts sum to n.
				var one histogram.Histogram
				one.Merge(pt.h)
				n = one.Count()
				h.Merge(&one)
			}
			counts[i] = strconv.FormatInt(n, 10)
		}
		if n := h.Count(); n > 0 {
			count := strconv.FormatInt(n, 10)
			if len(pts) > 1 {
				count += " [" + strings.Join(counts, " ") + "]"
			}
			fmt.Fprintf(s.w, "%s n=%s mean=%v p99=%v\n", name, count, h.Mean(), h.Percentile(99))
		}
		return
	}
	var sum float64
	nonzero := false
	vals := make([]string, len(pts))
	for i, pt := range pts {
		sum += pt.v
		nonzero = nonzero || pt.v != 0
		vals[i] = textValue(pt.v)
	}
	switch {
	case !nonzero:
	case len(pts) == 1:
		fmt.Fprintf(s.w, "%s %s\n", name, vals[0])
	case typ == "counter":
		fmt.Fprintf(s.w, "%s %s [%s]\n", name, textValue(sum), strings.Join(vals, " "))
	default:
		fmt.Fprintf(s.w, "%s [%s]\n", name, strings.Join(vals, " "))
	}
}

// textValue renders a value to 12 significant digits: byte counts up
// to a terabyte print whole, and a sum of seconds sheds its
// floating-point noise.
func textValue(v float64) string { return strconv.FormatFloat(v, 'g', 12, 64) }

// writeStageShare writes the one derived line of the section: each
// PerfContext stage's share of its path's end-to-end latency across
// dbs, and how much of that latency the stages account for together —
// the paper's software-share breakdown, from the same stage tables the
// xpointdb_stage_seconds family ranges over.
func writeStageShare(w io.Writer, dbs []*DB) {
	sum := func(h func(*Metrics) *histogram.Histogram) (d time.Duration) {
		for _, db := range dbs {
			d += h(db.metrics).Sum()
		}
		return d
	}
	var paths []string
	for _, p := range []struct {
		name   string
		stages []stageDef
		e2e    func(*Metrics) *histogram.Histogram
	}{
		{"write", writeStages, func(m *Metrics) *histogram.Histogram { return &m.WriteLatency }},
		{"get", readStages, func(m *Metrics) *histogram.Histogram { return &m.GetLatency }},
	} {
		e2e, covered := sum(p.e2e), time.Duration(0)
		var shares []string
		for _, st := range p.stages {
			if d := sum(st.hist); d > 0 && !st.nested {
				covered += d
				shares = append(shares, fmt.Sprintf("%s %.1f%%", strings.TrimSuffix(st.name, "_probe"), 100*coverage(e2e, d)))
			}
		}
		if len(shares) > 0 {
			paths = append(paths, fmt.Sprintf("%s %s (%.1f%% of end-to-end)", p.name, strings.Join(shares, ", "), 100*coverage(e2e, covered)))
		}
	}
	if len(paths) > 0 {
		fmt.Fprintf(w, "stage share    : %s\n", strings.Join(paths, "; "))
	}
}

func coverage(total, part time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(part) / float64(total)
}
