package engine

import (
	"io"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/costmodel"
	"xpointdb/internal/events"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// Options configures a DB. The zero value is not usable; start from
// DefaultOptions. Field defaults track RocksDB 5.17's, scaled per
// DESIGN.md so a ~hundreds-of-MB simulated dataset exhibits the same
// LSM dynamics as the paper's 100 GB one.
type Options struct {
	// FS is the data filesystem (required).
	FS vfs.FS
	// WALFS, if non-nil, holds the write-ahead log on a different
	// filesystem/device — the paper's case study C places it on NVM.
	WALFS vfs.FS
	// Clock drives all timing; nil means the real clock.
	Clock clock.Clock
	// CostModel charges virtual CPU time for in-memory work under
	// the simulation kernel. Nil charges nothing.
	CostModel *costmodel.Model

	// MemtableSize is the mutable memtable byte budget. A flushed
	// memtable becomes one Level-0 file, so this is also the L0 file
	// size knob that Figures 8/9/10/12 sweep.
	MemtableSize int64

	// L0CompactionTrigger starts L0→L1 compaction at this many L0
	// files (RocksDB default 4).
	L0CompactionTrigger int
	// L0SlowdownTrigger engages write throttling (RocksDB 20).
	L0SlowdownTrigger int
	// L0StopTrigger blocks writes entirely (RocksDB 36 — the paper's
	// "36 by default" Level-0 file limit).
	L0StopTrigger int

	// TargetFileSize is the output SST size at L1+.
	TargetFileSize int64
	// BaseLevelBytes is the L1 size target; each deeper level is
	// levelMultiplier× larger.
	BaseLevelBytes int64

	// BlockSize is the SST data block size (default 4 KiB).
	BlockSize int
	// BloomBitsPerKey sizes the per-table Bloom filters; 0 disables
	// them (default 10).
	BloomBitsPerKey int
	// BlockCacheSize is the block cache capacity in bytes; 0 means no
	// cache. Across the shards of a sharded store it is the total. Only
	// the ablation benches vary it; it stays an option because it sizes
	// a resource, a deployment setting.
	BlockCacheSize int64

	// MaxSubcompactions splits one compaction job into up to this many
	// disjoint key-range sub-compactions executed concurrently, each
	// producing its own output files, all installed by one atomic
	// version edit (RocksDB's max_subcompactions). Parallel merge loops
	// exploit the device's internal parallelism — the paper's central
	// underutilization finding for PCIe flash and XPoint — so L0 drains
	// faster and write stalls shorten. The extra lanes are drawn from the
	// background pool without blocking and never starve a queued flush.
	// 0 or 1 disables splitting (the single-merge-loop behavior).
	MaxSubcompactions int
	// CompactionRateBytesPerSec bounds compaction I/O (input reads +
	// output writes) to this many bytes per second of engine-clock
	// time, pacing background traffic against foreground reads and
	// writes (RocksDB's rate_limiter). 0 means unlimited. The budget is
	// the store's, however many shards draw from it.
	CompactionRateBytesPerSec int64

	// DisableWAL skips the write-ahead log entirely (Figure 17).
	DisableWAL bool
	// SyncWAL makes every commit group fsync the WAL before being
	// acknowledged. The default (false) matches RocksDB's benchmark
	// configuration and the paper's description: WAL appends go to
	// the write buffer and are flushed to the device asynchronously
	// (at memtable rotation). Durability-critical callers set this
	// or pass sync=true to Apply.
	SyncWAL bool

	// PipelinedWrites enables the paper's Algorithm 2: after the
	// group leader finishes the WAL append, every writer in the
	// group applies its own batch to the memtable concurrently.
	// Disabled, the leader applies all batches itself.
	PipelinedWrites bool

	// ThrottleMode selects the write controller policy (Algorithm 1,
	// two-stage, or none). The controller starts at RocksDB's 16 MiB/s
	// delayed_write_rate; two-stage mode's stage-1 floor is half that.
	ThrottleMode throttle.Mode

	// AdaptiveL0 enables case study B: the engine watches the
	// read/write mix over adaptiveWindow and retunes the memtable
	// budget so Level-0 converges to many small files under
	// write-heavy load (fast inserts) or few large files under
	// read-heavy load (fewer files to probe). The aggregate Level-0
	// volume is held at adaptiveL0ManyFiles × MemtableSize, so the
	// write-intensive budget is MemtableSize and the read-intensive
	// one is adaptiveL0ManyFiles/adaptiveL0FewFiles (4) times it.
	AdaptiveL0 bool

	// EventListener, if non-nil, receives the structured event stream
	// (flush, compaction, stall-condition and rate changes, WAL
	// syncs). Use events.NewEventLog for a JSON-lines file sink. The
	// listener is called in emission order from one drain goroutine
	// behind a bounded queue (obs.DefaultSinkQueue events), so a slow
	// sink never stalls the engine; if the queue fills, events are
	// dropped for the listener (counted in Shared.EventsDropped) while
	// still reaching the ops-plane replay ring and SSE subscribers.
	// DB.SyncEvents waits until everything emitted so far has been
	// delivered: call it before asserting on the listener's contents.
	EventListener events.Listener

	// ObsAddr, when non-empty, serves the HTTP ops plane on this
	// address (e.g. "127.0.0.1:8639", or ":0" for an ephemeral port —
	// read the bound address back with DB.ObsAddr): /metrics in
	// Prometheus text format, /events as SSE with recent-event replay,
	// /stats, /healthz, /debug/pprof, and a live dashboard on /.
	ObsAddr string

	// SlowOpThreshold, when positive, promotes every Get or Apply
	// whose end-to-end latency reaches the threshold into a slow_op
	// event carrying the operation's full PerfContext stage breakdown
	// (stage timing is collected for every op while set, as if
	// CollectPerf were on). Zero disables slow-op tracing.
	SlowOpThreshold time.Duration

	// CollectPerf enables per-operation stage timing on every Get and
	// Apply, aggregated into the Metrics Stage* histograms, even when
	// the caller does not pass a PerfContext. Off by default: stage
	// timing adds a few clock reads per operation.
	CollectPerf bool

	// ScrubBytesPerSec paces the background scrubber, which continuously
	// re-reads live SSTs — bypassing the block cache — and verifies the
	// whole-file checksum plus every block CRC. Default 8 MiB/s; the
	// budget covers all scrub I/O, so foreground impact stays bounded.
	ScrubBytesPerSec int64
	// DisableScrub turns the background scrubber off. Corruption is
	// then detected only when a read, compaction, or paranoid check
	// happens to touch a damaged block.
	DisableScrub bool
	// ParanoidFileChecks re-reads and fully verifies every flush and
	// compaction output before its version edit installs (RocksDB's
	// paranoid_file_checks). Off by default: it re-reads every written
	// byte.
	ParanoidFileChecks bool

	// MaxAllowedSpace caps the bytes of live SST/WAL/MANIFEST files
	// the engine may hold on disk (RocksDB's SstFileManager
	// max_allowed_space). Zero means unlimited. Approaching the budget
	// escalates the write controller (delayed once less than
	// freeSpaceThreshold of it remains free, stopped below half that —
	// reads keep serving) before any real write can fail for space, and
	// flush/compaction jobs whose projected output would overrun the
	// budget are deferred until reclamation frees headroom. The budget
	// is the store's: every shard charges the same one.
	MaxAllowedSpace int64

	// DisableAutoRecovery turns off the background recovery worker:
	// hard background errors stay latched until a manual Resume (or a
	// reopen), matching the pre-recovery engine. Soft-error in-place
	// retries are unaffected. Only the engine's latch tests on the real
	// clock set it, to assert that an error stays latched.
	DisableAutoRecovery bool
	// RecoveryBaseBackoff is the delay before the second automatic
	// recovery attempt; each further attempt doubles it up to
	// RecoveryMaxBackoff (default 5ms).
	RecoveryBaseBackoff time.Duration
	// RecoveryMaxBackoff caps the exponential recovery backoff
	// (default 500ms).
	RecoveryMaxBackoff time.Duration
	// MaxRecoveryAttempts bounds automatic recovery attempts per
	// latched error; past it the worker gives up (the error stays
	// clearable via Resume). Default 12.
	MaxRecoveryAttempts int

	// StatsDumpInterval, when positive and StatsWriter is set, starts
	// a background worker that writes DB.StatsReport to StatsWriter
	// every interval of engine-clock time — RocksDB's periodic stats
	// dump (dbbench -statsinterval).
	StatsDumpInterval time.Duration
	// StatsWriter receives the periodic stats dumps.
	StatsWriter io.Writer
}

// Tuning values that are constants rather than Options fields: no
// caller, test or benchmark needs a second value for any of them.
const (
	// maxImmutables bounds the queue of flushed-but-unwritten memtables
	// (RocksDB max_write_buffer_number − 1).
	maxImmutables = 1
	// levelMultiplier is the per-level size ratio.
	levelMultiplier = 10
	// adaptiveL0ManyFiles and adaptiveL0FewFiles are case study B's two
	// target Level-0 file counts.
	adaptiveL0ManyFiles = 24
	adaptiveL0FewFiles  = 6
	// adaptiveWriteIntensive is the write fraction above which case
	// study B tags the workload write-intensive (paper: 25%).
	adaptiveWriteIntensive = 0.25
	// adaptiveWindow is case study B's sampling window for the
	// read/write ratio.
	adaptiveWindow = 2 * time.Second
	// freeSpaceThreshold is the fraction of a space budget that must
	// remain free before the degradation ladder engages: below it
	// writes are delayed, below half of it they are stopped.
	freeSpaceThreshold = 0.1
	// maxBatchGroupBytes caps how much a write-group leader batches
	// into one WAL record.
	maxBatchGroupBytes = 1 << 20
)

// DefaultOptions returns the scaled-RocksDB defaults. fs is the data
// filesystem.
func DefaultOptions(fs vfs.FS) Options {
	return Options{
		FS:                  fs,
		RecoveryBaseBackoff: 5 * time.Millisecond,
		RecoveryMaxBackoff:  500 * time.Millisecond,
		MaxRecoveryAttempts: 12,
		MemtableSize:        4 << 20,
		L0CompactionTrigger: 4,
		L0SlowdownTrigger:   20,
		L0StopTrigger:       36,
		TargetFileSize:      4 << 20,
		BaseLevelBytes:      16 << 20,
		BlockSize:           4096,
		BloomBitsPerKey:     10,
		BlockCacheSize:      8 << 20,
		SyncWAL:             false,
		PipelinedWrites:     true,
		ThrottleMode:        throttle.ModeAlgorithm1,
		ScrubBytesPerSec:    8 << 20,
	}
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	d := DefaultOptions(o.FS)
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	if o.MemtableSize <= 0 {
		o.MemtableSize = d.MemtableSize
	}
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = d.L0CompactionTrigger
	}
	if o.L0SlowdownTrigger <= 0 {
		o.L0SlowdownTrigger = d.L0SlowdownTrigger
	}
	if o.L0StopTrigger <= 0 {
		o.L0StopTrigger = d.L0StopTrigger
	}
	if o.TargetFileSize <= 0 {
		o.TargetFileSize = o.MemtableSize
	}
	if o.BaseLevelBytes <= 0 {
		o.BaseLevelBytes = 4 * o.MemtableSize
	}
	if o.BlockSize <= 0 {
		o.BlockSize = d.BlockSize
	}
	if o.BlockCacheSize < 0 {
		o.BlockCacheSize = 0
	}
	if o.MaxSubcompactions <= 0 {
		o.MaxSubcompactions = 1
	}
	if o.CompactionRateBytesPerSec < 0 {
		o.CompactionRateBytesPerSec = 0
	}
	if o.RecoveryBaseBackoff <= 0 {
		o.RecoveryBaseBackoff = d.RecoveryBaseBackoff
	}
	if o.RecoveryMaxBackoff <= 0 {
		o.RecoveryMaxBackoff = d.RecoveryMaxBackoff
	}
	if o.RecoveryMaxBackoff < o.RecoveryBaseBackoff {
		o.RecoveryMaxBackoff = o.RecoveryBaseBackoff
	}
	if o.MaxRecoveryAttempts <= 0 {
		o.MaxRecoveryAttempts = d.MaxRecoveryAttempts
	}
	if o.ScrubBytesPerSec <= 0 {
		o.ScrubBytesPerSec = d.ScrubBytesPerSec
	}
	return o
}
