package engine

import (
	"fmt"
	"strings"
	"time"

	"xpointdb/internal/manifest"
)

// MetricsSnapshot is a consistent plain-value copy of the engine's
// counters, safe to hold, compare and serialize while the engine keeps
// running. Histogram-backed fields are summarized (count, mean, p99).
type MetricsSnapshot struct {
	Uptime time.Duration

	Gets      int64
	GetMean   time.Duration
	GetP99    time.Duration
	Writes    int64
	WriteMean time.Duration
	WriteP99  time.Duration
	WALMean   time.Duration

	WaitingWritersMean float64
	WaitingWritersMax  int64

	StallDelayTotal time.Duration
	StallStopTotal  time.Duration
	StallStops      int64

	Flushes                 int64
	FlushBytes              int64
	Compactions             int64
	CompactionBytesRead     int64
	CompactionBytesWritten  int64
	CompactionEntriesMerged int64
	TrivialMoves            int64
	Subcompactions          int64

	SuperVersionInstalls int64
	ZombieFilesDeleted   int64
	PinnedVersions       int64
	PinnedVersionsMax    int64

	GetHitMemtable  int64
	GetHitImmutable int64
	GetHitL0        int64
	GetHitDeep      int64
	GetMisses       int64
	L0TablesProbed  int64
	BloomSkips      int64

	WALSyncs     int64
	WALSyncBytes int64

	SoftErrors        int64
	HardErrors        int64
	RecoveryAttempts  int64
	RecoverySuccesses int64
	RecoveryGiveups   int64

	ScrubbedBytes       int64
	ScrubPasses         int64
	CorruptionsDetected int64
	FilesQuarantined    int64
	CorruptionsRepaired int64
	DataLossEvents      int64

	EnospcErrors    int64
	SpaceDeferrals  int64
	SpaceWaits      int64
	SpaceRecoveries int64

	FlushMean      time.Duration
	FlushP99       time.Duration
	CompactionMean time.Duration
	CompactionP99  time.Duration
	WALSyncMean    time.Duration
	WALSyncP99     time.Duration
	ScrubPassMean  time.Duration

	SlowOps       int64
	EventsDropped int64

	PerfWriteOps         int64
	PerfReadOps          int64
	PerfBlockCacheHits   int64
	PerfBlockCacheMisses int64
}

// Snapshot captures the current counter values. It is safe to call
// concurrently with live operations.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Uptime: m.clk.Now().Sub(m.start),

		Gets:      m.GetLatency.Count(),
		GetMean:   m.GetLatency.Mean(),
		GetP99:    m.GetLatency.Percentile(99),
		Writes:    m.WriteLatency.Count(),
		WriteMean: m.WriteLatency.Mean(),
		WriteP99:  m.WriteLatency.Percentile(99),
		WALMean:   m.WALLatency.Mean(),

		WaitingWritersMean: m.WaitingWriters.Mean(),
		WaitingWritersMax:  m.WaitingWriters.Max(),

		StallDelayTotal: time.Duration(m.StallDelayTotal.Load()),
		StallStopTotal:  time.Duration(m.StallStopTotal.Load()),
		StallStops:      m.StallStops.Load(),

		Flushes:                 m.Flushes.Load(),
		FlushBytes:              m.FlushBytes.Load(),
		Compactions:             m.Compactions.Load(),
		CompactionBytesRead:     m.CompactionBytesRead.Load(),
		CompactionBytesWritten:  m.CompactionBytesWritten.Load(),
		CompactionEntriesMerged: m.CompactionEntriesMerged.Load(),
		TrivialMoves:            m.TrivialMoves.Load(),
		Subcompactions:          m.Subcompactions.Load(),

		SuperVersionInstalls: m.SuperVersionInstalls.Load(),
		ZombieFilesDeleted:   m.ZombieFilesDeleted.Load(),
		PinnedVersions:       m.PinnedVersions.Current(),
		PinnedVersionsMax:    m.PinnedVersions.Max(),

		GetHitMemtable:  m.GetHitMemtable.Load(),
		GetHitImmutable: m.GetHitImmutable.Load(),
		GetHitL0:        m.GetHitL0.Load(),
		GetHitDeep:      m.GetHitDeep.Load(),
		GetMisses:       m.GetMisses.Load(),
		L0TablesProbed:  m.L0TablesProbed.Load(),
		BloomSkips:      m.BloomSkips.Load(),

		WALSyncs:     m.WALSyncs.Load(),
		WALSyncBytes: m.WALSyncBytes.Load(),

		SoftErrors:        m.SoftErrors.Load(),
		HardErrors:        m.HardErrors.Load(),
		RecoveryAttempts:  m.RecoveryAttempts.Load(),
		RecoverySuccesses: m.RecoverySuccesses.Load(),
		RecoveryGiveups:   m.RecoveryGiveups.Load(),

		ScrubbedBytes:       m.ScrubbedBytes.Load(),
		ScrubPasses:         m.ScrubPasses.Load(),
		CorruptionsDetected: m.CorruptionsDetected.Load(),
		FilesQuarantined:    m.FilesQuarantined.Load(),
		CorruptionsRepaired: m.CorruptionsRepaired.Load(),
		DataLossEvents:      m.DataLossEvents.Load(),

		EnospcErrors:    m.EnospcErrors.Load(),
		SpaceDeferrals:  m.SpaceDeferrals.Load(),
		SpaceWaits:      m.SpaceWaits.Load(),
		SpaceRecoveries: m.SpaceRecoveries.Load(),

		FlushMean:      m.FlushLatency.Mean(),
		FlushP99:       m.FlushLatency.Percentile(99),
		CompactionMean: m.CompactionLatency.Mean(),
		CompactionP99:  m.CompactionLatency.Percentile(99),
		WALSyncMean:    m.WALSyncLatency.Mean(),
		WALSyncP99:     m.WALSyncLatency.Percentile(99),
		ScrubPassMean:  m.ScrubPassLatency.Mean(),

		SlowOps:       m.SlowOps.Load(),
		EventsDropped: m.eventsDropped.Load(),

		PerfWriteOps:         m.PerfWriteOps.Load(),
		PerfReadOps:          m.PerfReadOps.Load(),
		PerfBlockCacheHits:   m.PerfBlockCacheHits.Load(),
		PerfBlockCacheMisses: m.PerfBlockCacheMisses.Load(),
	}
}

// Report renders a human-readable statistics dump, RocksDB
// DB-stats-style. String returns the same text.
func (m *Metrics) Report() string {
	s := m.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "** Engine stats (uptime %v) **\n", s.Uptime.Round(time.Millisecond))
	fmt.Fprintf(&b, "gets           : %d (mean %v, p99 %v)\n", s.Gets, s.GetMean, s.GetP99)
	fmt.Fprintf(&b, "writes         : %d (mean %v, p99 %v)\n", s.Writes, s.WriteMean, s.WriteP99)
	fmt.Fprintf(&b, "wal            : group latency mean %v, %d syncs (%d B; sync mean %v, p99 %v)\n",
		s.WALMean, s.WALSyncs, s.WALSyncBytes, s.WALSyncMean, s.WALSyncP99)
	fmt.Fprintf(&b, "stalls         : delay %v, stop %v in %d episodes\n",
		s.StallDelayTotal.Round(time.Microsecond), s.StallStopTotal.Round(time.Microsecond), s.StallStops)
	fmt.Fprintf(&b, "waiting writers: mean %.2f, max %d\n", s.WaitingWritersMean, s.WaitingWritersMax)
	fmt.Fprintf(&b, "flush          : %d (%d B; mean %v, p99 %v)\n",
		s.Flushes, s.FlushBytes, s.FlushMean, s.FlushP99)
	fmt.Fprintf(&b, "compaction     : %d (read %d B, wrote %d B, merged %d entries; mean %v, p99 %v)\n",
		s.Compactions, s.CompactionBytesRead, s.CompactionBytesWritten, s.CompactionEntriesMerged,
		s.CompactionMean, s.CompactionP99)
	fmt.Fprintf(&b, "compaction mech: %d trivial moves, %d sub-compactions\n",
		s.TrivialMoves, s.Subcompactions)
	fmt.Fprintf(&b, "superversion   : %d installs, %d pinned (max %d), %d zombie SSTs deleted\n",
		s.SuperVersionInstalls, s.PinnedVersions, s.PinnedVersionsMax, s.ZombieFilesDeleted)
	fmt.Fprintf(&b, "read path      : mem %d, imm %d, L0 %d, deep %d, miss %d; L0 probes %d, bloom skips %d\n",
		s.GetHitMemtable, s.GetHitImmutable, s.GetHitL0, s.GetHitDeep, s.GetMisses,
		s.L0TablesProbed, s.BloomSkips)
	fmt.Fprintf(&b, "bg errors      : %d soft, %d hard; recovery %d attempts, %d recovered, %d gave up\n",
		s.SoftErrors, s.HardErrors, s.RecoveryAttempts, s.RecoverySuccesses, s.RecoveryGiveups)
	fmt.Fprintf(&b, "scrub          : %d passes (mean %v), %d B verified\n",
		s.ScrubPasses, s.ScrubPassMean, s.ScrubbedBytes)
	fmt.Fprintf(&b, "integrity      : %d corruptions detected, %d quarantined, %d repaired, %d data-loss events\n",
		s.CorruptionsDetected, s.FilesQuarantined, s.CorruptionsRepaired, s.DataLossEvents)
	if s.EnospcErrors > 0 || s.SpaceDeferrals > 0 || s.SpaceWaits > 0 || s.SpaceRecoveries > 0 {
		fmt.Fprintf(&b, "space events   : %d ENOSPC errors, %d deferred jobs, %d full probes, %d recoveries\n",
			s.EnospcErrors, s.SpaceDeferrals, s.SpaceWaits, s.SpaceRecoveries)
	}
	if s.SlowOps > 0 || s.EventsDropped > 0 {
		fmt.Fprintf(&b, "ops plane      : %d slow ops traced, %d events dropped\n",
			s.SlowOps, s.EventsDropped)
	}

	if s.PerfWriteOps > 0 {
		e2e := m.WriteLatency.Sum()
		fmt.Fprintf(&b, "write stages   : %s (%d ops, %.1f%% of end-to-end)\n",
			m.stageLine(e2e, writeStages), s.PerfWriteOps, 100*coverage(e2e, m.stageSum(writeStages)))
	}
	if s.PerfReadOps > 0 {
		e2e := m.GetLatency.Sum()
		fmt.Fprintf(&b, "read stages    : %s (%d ops, %.1f%% of end-to-end)\n",
			m.stageLine(e2e, readStages), s.PerfReadOps, 100*coverage(e2e, m.stageSum(readStages)))
		fmt.Fprintf(&b, "block reads    : %v on cache misses (%d hits, %d misses via perf)\n",
			m.StageBlockRead.Sum(), m.PerfBlockCacheHits.Load(), m.PerfBlockCacheMisses.Load())
	}
	return b.String()
}

// String returns Report.
func (m *Metrics) String() string { return m.Report() }

// stageLine formats each (non-nested) stage as its share of the
// end-to-end total.
func (m *Metrics) stageLine(e2e time.Duration, stages []stageDef) string {
	var parts []string
	for _, st := range stages {
		sum := st.hist(m).Sum()
		if sum == 0 || st.nested {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", strings.TrimSuffix(st.name, "_probe"), 100*coverage(e2e, sum)))
	}
	if len(parts) == 0 {
		return "(all stages zero)"
	}
	return strings.Join(parts, ", ")
}

func coverage(total, part time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// StatsReport extends Metrics.Report with engine state the metrics
// cannot see: health, the LSM shape and — when the engine owns its
// Shared, otherwise the owning store prints them once — the shared
// resources' lines.
func (db *DB) StatsReport() string {
	var b strings.Builder
	b.WriteString(db.metrics.Report())

	db.mu.Lock()
	v := db.vs.Current()
	var lsm []string
	for l := 0; l < manifest.NumLevels; l++ {
		if n := v.NumFiles(l); n > 0 {
			lsm = append(lsm, fmt.Sprintf("L%d %d files (%d B)", l, n, v.LevelBytes(l)))
		}
	}
	imms := len(db.imms)
	health := db.healthLocked()
	bg := db.bgErr
	db.mu.Unlock()

	if len(lsm) == 0 {
		lsm = []string{"empty"}
	}
	if bg != nil {
		fmt.Fprintf(&b, "health         : %v (%v)\n", health, bg)
	} else {
		fmt.Fprintf(&b, "health         : %v\n", health)
	}
	fmt.Fprintf(&b, "lsm            : %s; immutables %d\n", strings.Join(lsm, ", "), imms)
	if db.ownsShared {
		b.WriteString(db.shared.StatsReport())
	}
	b.WriteString("** Per-level compaction stats **\n")
	b.WriteString(db.LevelStats().String())
	return b.String()
}

// statsQuantum bounds how long a pending Close can wait on the stats
// worker under the real clock (under simulation the kernel jumps to
// the next tick immediately, so the quantum costs nothing).
const statsQuantum = 200 * time.Millisecond

// statsWorker periodically writes StatsReport to Options.StatsWriter
// (or the debug logger) every StatsDumpInterval of engine-clock time.
func (db *DB) statsWorker() {
	for !db.sleepUnlessClosed(db.opts.StatsDumpInterval, statsQuantum) {
		report := db.StatsReport()
		if w := db.opts.StatsWriter; w != nil {
			fmt.Fprintf(w, "--- stats @ %v ---\n%s", db.clk.Now().Format("15:04:05.000"), report)
		} else {
			db.opts.logf("stats dump:\n%s", report)
		}
	}
}
