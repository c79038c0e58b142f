package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/histogram"
	"xpointdb/internal/manifest"
)

// Metrics aggregates the engine's instrumentation. All members are
// safe for concurrent use. The family tables in prometheus.go are how
// they are read: /metrics and /stats both render those tables.
type Metrics struct {
	clk   clock.Clock
	start time.Time

	// GetLatency and WriteLatency are end-to-end operation latencies
	// as the engine observed them (including queueing and stalls) —
	// the histograms behind Figures 6/7/10/12/14/15/17/20.
	GetLatency   histogram.Histogram
	WriteLatency histogram.Histogram
	// WALLatency isolates the WAL append+sync portion of commits.
	WALLatency histogram.Histogram

	// WaitingWriters tracks the write-queue depth over time (Fig 16).
	WaitingWriters Gauge

	// Stall accounting.
	StallDelayTotal atomic.Int64 // ns spent in controller delays
	StallStopTotal  atomic.Int64 // ns spent blocked on stop conditions
	StallStops      atomic.Int64 // number of stop episodes

	// Background work. Job counts are the latency histograms' Count()s
	// and job bytes the per-level counters (Levels) — one source each.
	CompactionEntriesMerged atomic.Int64
	// TrivialMoves counts files relocated to their output level by a
	// pure manifest edit — zero data read or written.
	TrivialMoves atomic.Int64
	// Subcompactions counts key-range sub-compaction merge loops run by
	// split jobs (jobs that did not split are not counted here).
	Subcompactions atomic.Int64

	// SuperVersion lifecycle. SuperVersionInstalls counts read-path
	// bundle swaps (rotation, flush, version-edit, recovery, open).
	// PinnedVersions gauges how many versions are alive at once — the
	// current bundle plus every bundle pinned by an open iterator or an
	// in-flight read. ZombieFilesDeleted counts SSTs reclaimed by the
	// reference-driven sweep.
	SuperVersionInstalls atomic.Int64
	ZombieFilesDeleted   atomic.Int64
	PinnedVersions       Gauge

	// Read-path shape counters.
	GetHitMemtable  atomic.Int64
	GetHitImmutable atomic.Int64
	GetHitL0        atomic.Int64
	GetHitDeep      atomic.Int64
	GetMisses       atomic.Int64
	L0TablesProbed  atomic.Int64
	BloomSkips      atomic.Int64

	// WAL accounting (mirrors wal.Writer across rotations); the sync
	// count is WALSyncLatency.Count().
	WALSyncBytes atomic.Int64

	// Error-handler accounting (errorhandler.go, recovery.go).
	// SoftErrors counts soft-error episodes (retrying in place);
	// HardErrors counts latch events. RecoveryAttempts counts every
	// automatic or manual recovery try; successes clear the latch,
	// giveups exhaust the automatic budget.
	SoftErrors        atomic.Int64
	HardErrors        atomic.Int64
	RecoveryAttempts  atomic.Int64
	RecoverySuccesses atomic.Int64
	RecoveryGiveups   atomic.Int64

	// Integrity accounting (scrub.go, integrity.go, repair.go).
	// ScrubbedBytes counts bytes the background scrubber read and
	// verified (ScrubPassLatency.Count() counts completed full cycles
	// over the live file set). CorruptionsDetected counts every
	// checksum failure observed (read path, scrub, paranoid verify, or
	// explicit verification — re-detections of the same damage each
	// count).
	// FilesQuarantined counts files marked damaged in the manifest;
	// CorruptionsRepaired counts quarantined files replaced by a repair
	// compaction with zero loss; DataLossEvents counts files dropped
	// with a data_loss event after salvage failed.
	ScrubbedBytes       atomic.Int64
	CorruptionsDetected atomic.Int64
	FilesQuarantined    atomic.Int64
	CorruptionsRepaired atomic.Int64
	DataLossEvents      atomic.Int64

	// Space accounting (space.go, recovery.go). EnospcErrors counts
	// disk-full errors latched or noted by the error handler;
	// SpaceDeferrals counts flush/compaction jobs that deferred for lack
	// of budget headroom (each deferral episode counts once, however
	// long it waits); SpaceWaits counts disk-full recovery attempts that
	// still found no space (each burns one recovery attempt);
	// SpaceRecoveries counts recoveries completed after a disk-full
	// latch — acked data survived a full disk.
	EnospcErrors    atomic.Int64
	SpaceDeferrals  atomic.Int64
	SpaceWaits      atomic.Int64
	SpaceRecoveries atomic.Int64

	// Background-stage latency histograms: one sample per completed
	// flush, per compaction, per WAL fsync, and per full scrub pass.
	// Full distributions (not just sums) because background-work tail
	// latency is what turns into foreground stalls — the paper's
	// throttling case studies are exactly about flush/compaction
	// episodes that straggle.
	FlushLatency      histogram.Histogram
	CompactionLatency histogram.Histogram
	WALSyncLatency    histogram.Histogram
	ScrubPassLatency  histogram.Histogram

	// SlowOps counts operations promoted into slow_op trace events
	// (end-to-end latency over Options.SlowOpThreshold).
	SlowOps atomic.Int64

	// Levels holds the per-level compaction/I-O counters behind the
	// RocksDB-style level stats table (levelstats.go).
	Levels [manifest.NumLevels]LevelCounters

	// Per-stage latency histograms, populated from PerfContext when
	// Options.CollectPerf is on (or a caller passes a context in).
	// Only operations that exercised a stage are recorded in that
	// stage's histogram, so Sum()s attribute end-to-end latency and
	// Mean()s describe the stage when it occurs. PerfOps counts the
	// operations aggregated.
	PerfWriteOps       atomic.Int64
	StageThrottleDelay histogram.Histogram
	StageQueueWait     histogram.Histogram
	StageWriteStall    histogram.Histogram
	StageWALAppend     histogram.Histogram
	StageWALSync       histogram.Histogram
	StageMemInsert     histogram.Histogram

	PerfReadOps    atomic.Int64
	StageMemProbe  histogram.Histogram
	StageImmProbe  histogram.Histogram
	StageL0Probe   histogram.Histogram
	StageDeepProbe histogram.Histogram
	StageBlockRead histogram.Histogram
}

func newMetrics(clk clock.Clock) *Metrics {
	m := &Metrics{clk: clk, start: clk.Now()}
	m.WaitingWriters.init(clk)
	m.PinnedVersions.init(clk)
	return m
}

// stageDef declares one PerfContext stage: its stage label on
// xpointdb_stage_seconds (the stage-share line drops a "_probe"
// suffix), where an operation's PerfContext carries it, and which
// histogram aggregates it. Recording, the stage-share line and sums,
// and the exporter all range over writeStages and readStages — a new
// stage is one PerfContext field, one Metrics histogram and one line
// here.
type stageDef struct {
	name string
	dur  func(*PerfContext) time.Duration
	hist func(*Metrics) *histogram.Histogram
	// nested marks a sub-portion of other stages: recorded and
	// exported, but left out of the stage sum and the stage-share line.
	nested bool
}

var writeStages = []stageDef{
	{name: "throttle", dur: func(pc *PerfContext) time.Duration { return pc.ThrottleDelay }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageThrottleDelay }},
	{name: "queue", dur: func(pc *PerfContext) time.Duration { return pc.WriteQueueWait }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageQueueWait }},
	{name: "stall", dur: func(pc *PerfContext) time.Duration { return pc.WriteStall }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageWriteStall }},
	{name: "wal_append", dur: func(pc *PerfContext) time.Duration { return pc.WALAppend }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageWALAppend }},
	{name: "wal_sync", dur: func(pc *PerfContext) time.Duration { return pc.WALSync }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageWALSync }},
	{name: "mem_insert", dur: func(pc *PerfContext) time.Duration { return pc.MemtableInsert }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageMemInsert }},
}

var readStages = []stageDef{
	{name: "mem_probe", dur: func(pc *PerfContext) time.Duration { return pc.MemtableProbe }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageMemProbe }},
	{name: "imm_probe", dur: func(pc *PerfContext) time.Duration { return pc.ImmutableProbe }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageImmProbe }},
	{name: "l0_probe", dur: func(pc *PerfContext) time.Duration { return pc.L0ProbeTime }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageL0Probe }},
	{name: "deep_probe", dur: func(pc *PerfContext) time.Duration { return pc.DeepProbeTime }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageDeepProbe }},
	{name: "block_read", dur: func(pc *PerfContext) time.Duration { return pc.BlockReadTime }, hist: func(m *Metrics) *histogram.Histogram { return &m.StageBlockRead }, nested: true},
}

// allStages is every stage, write path first.
var allStages = append(append([]stageDef(nil), writeStages...), readStages...)

// recordStages folds one operation's stage breakdown into the stage
// histograms. Zero stages are skipped (see the field comments).
func (m *Metrics) recordStages(stages []stageDef, pc *PerfContext) {
	for i := range stages {
		if d := stages[i].dur(pc); d > 0 {
			stages[i].hist(m).Record(d)
		}
	}
}

// recordWritePerf folds one write operation's stage breakdown into the
// stage histograms.
func (m *Metrics) recordWritePerf(pc *PerfContext) {
	m.PerfWriteOps.Add(1)
	m.recordStages(writeStages, pc)
}

// recordReadPerf folds one read operation's stage breakdown into the
// stage histograms.
func (m *Metrics) recordReadPerf(pc *PerfContext) {
	m.PerfReadOps.Add(1)
	m.recordStages(readStages, pc)
}

// LevelCounters aggregates the compaction I/O attributed to one LSM
// level — the level each flush or compaction *writes into* (RocksDB's
// per-level stats table convention: a L3→L4 compaction is charged to
// L4). All fields are cumulative since open.
type LevelCounters struct {
	// Compactions counts completed jobs into the level: flushes for
	// Level 0, compactions for deeper levels.
	Compactions atomic.Int64
	// BytesIngested counts bytes arriving from above: the memtable
	// bytes flushed (L0) or the upper-level input bytes read (L1+).
	// Write-amp for the level is BytesWritten / BytesIngested.
	BytesIngested atomic.Int64
	// BytesRead counts all compaction input bytes read for jobs into
	// this level (upper-level inputs plus this level's overlaps).
	BytesRead atomic.Int64
	// BytesWritten counts output bytes written into the level.
	BytesWritten atomic.Int64
	// Micros is total flush/compaction wall (or virtual) time for jobs
	// into the level.
	Micros atomic.Int64
}

// recordCompaction folds one completed job into the level's counters.
func (lc *LevelCounters) recordCompaction(ingested, read, written int64, d time.Duration) {
	lc.Compactions.Add(1)
	lc.BytesIngested.Add(ingested)
	lc.BytesRead.Add(read)
	lc.BytesWritten.Add(written)
	lc.Micros.Add(d.Microseconds())
}

// Gauge is a time-weighted level gauge: it integrates the level over
// time exactly at each change, so Mean needs no sampler.
//
// The zero value is usable, like Histogram's: without init (no clock)
// it degrades to a plain level/max gauge — Add, Current and Max work,
// and Mean reports 0 because there is no time base to weight by.
type Gauge struct {
	clk clock.Clock

	mu       sync.Mutex
	start    time.Time
	cur      int64
	integral time.Duration // cur-weighted elapsed time, in level·ns
	last     time.Time
	max      int64
}

func (g *Gauge) init(clk clock.Clock) {
	g.clk = clk
	g.start = clk.Now()
	g.last = g.start
}

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) {
	var now time.Time
	if g.clk != nil {
		now = g.clk.Now()
	}
	g.mu.Lock()
	if g.clk != nil {
		g.integral += time.Duration(g.cur) * now.Sub(g.last)
		g.last = now
	}
	g.cur += delta
	if g.cur > g.max {
		g.max = g.cur
	}
	g.mu.Unlock()
}

// Current returns the instantaneous level.
func (g *Gauge) Current() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// Mean returns the time-weighted mean level since the gauge started,
// or 0 for a zero-value gauge (no clock to integrate against).
func (g *Gauge) Mean() float64 {
	if g.clk == nil {
		return 0
	}
	now := g.clk.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	integral := g.integral + time.Duration(g.cur)*now.Sub(g.last)
	total := now.Sub(g.start)
	if total <= 0 {
		return 0
	}
	return float64(integral) / float64(total)
}

// Max returns the maximum level observed.
func (g *Gauge) Max() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}
