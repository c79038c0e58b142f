package engine

import (
	"fmt"
	"strings"
	"time"
)

// MetricsSnapshot is a plain-value copy of the counters the benchmark
// harness (bench/, a module of its own) diffs across a measured window.
// It exists for that reader alone and holds exactly the fields it
// reads; people read the engine's facts on /stats and machines on
// /metrics, both rendered from the family tables in prometheus.go.
type MetricsSnapshot struct {
	Gets, Writes int64

	Flushes                 int64
	Compactions             int64
	CompactionBytesWritten  int64
	CompactionEntriesMerged int64
	TrivialMoves            int64
	SuperVersionInstalls    int64

	StallDelayTotal time.Duration
	StallStopTotal  time.Duration
	FlushMean       time.Duration
	CompactionMean  time.Duration

	GetHitMemtable  int64
	GetHitImmutable int64
	WALSyncs        int64
}

// Snapshot captures the current values of the fields above. It is safe
// to call concurrently with live operations.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var compWritten int64 // every job into Level 1 and below is a compaction
	for l := 1; l < len(m.Levels); l++ {
		compWritten += m.Levels[l].BytesWritten.Load()
	}
	return MetricsSnapshot{
		Gets:   m.GetLatency.Count(),
		Writes: m.WriteLatency.Count(),

		Flushes:                 m.FlushLatency.Count(),
		Compactions:             m.CompactionLatency.Count(),
		CompactionBytesWritten:  compWritten,
		CompactionEntriesMerged: m.CompactionEntriesMerged.Load(),
		TrivialMoves:            m.TrivialMoves.Load(),
		SuperVersionInstalls:    m.SuperVersionInstalls.Load(),

		StallDelayTotal: time.Duration(m.StallDelayTotal.Load()),
		StallStopTotal:  time.Duration(m.StallStopTotal.Load()),
		FlushMean:       m.FlushLatency.Mean(),
		CompactionMean:  m.CompactionLatency.Mean(),

		GetHitMemtable:  m.GetHitMemtable.Load(),
		GetHitImmutable: m.GetHitImmutable.Load(),
		WALSyncs:        m.WALSyncLatency.Count(),
	}
}

// StatsReport is the /stats body: the engine state the family tables
// cannot see — health with the latched error, the LSM shape and the
// immutable queue — then the rendered metrics section (WriteStats; the
// shared resources' lines only when the engine owns its set, otherwise
// the owning store renders them once), then the per-level table.
func (db *DB) StatsReport() string { return db.report(true) }

// StateReport is StatsReport without the metrics section: a sharded
// store renders one store-wide section, then this for every shard.
func (db *DB) StateReport() string { return db.report(false) }

func (db *DB) report(section bool) string {
	db.mu.Lock()
	imms, health, bg := len(db.imms), db.healthLocked(), db.bgErr
	db.mu.Unlock()
	levels := db.LevelStats()
	var lsm []string
	for _, l := range levels.Levels {
		if l.Files > 0 {
			lsm = append(lsm, fmt.Sprintf("L%d %d files (%d B)", l.Level, l.Files, l.Bytes))
		}
	}
	if len(lsm) == 0 {
		lsm = []string{"empty"}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "health         : %v", health)
	if bg != nil {
		fmt.Fprintf(&b, " (%v)", bg)
	}
	fmt.Fprintf(&b, "\nlsm            : %s; immutables %d\n", strings.Join(lsm, ", "), imms)
	if section {
		var shared *Shared
		if db.ownsShared {
			shared = db.shared
		}
		WriteStats(&b, []*DB{db}, shared)
	}
	b.WriteString("** Per-level compaction stats **\n")
	b.WriteString(levels.String())
	return b.String()
}
