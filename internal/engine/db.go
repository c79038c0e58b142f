// Package engine implements the LSM-tree key-value store under test:
// a from-scratch reproduction of the RocksDB design points analyzed by
// the paper — memtable + WAL write path with batch groups and
// pipelined writes (Algorithm 2), Level-0 accumulation with
// slowdown/stop thresholds and the Algorithm 1 write controller,
// background flush and compaction, Bloom filters and a block cache —
// instrumented so every figure of the paper can be regenerated.
//
// Locking discipline. Three tiers of state, three disciplines:
//
//   - Write-side and background state — the write queue, memtable
//     rotation, the version set's manifest fields, worker flags — is
//     protected by db.mu (a clock.Mutex). db.mu is never held across
//     I/O or any clock.Sleep; condition variables created from the
//     engine clock are used for every cross-process wait, so the
//     engine runs unchanged under the real clock or the simulation
//     kernel.
//
//   - The read hot path takes NO engine lock. Get, Has and iterator
//     construction pin the current SuperVersion (superversion.go) with
//     one atomic load + ref and read the immutable bundle
//     {mem, imms, version}; the pin also keeps every SST the version
//     references alive, because SST deletion is reference-driven (a
//     file dies only when its last version reference drops — see
//     internal/manifest and sweepZombies). Installers mutate engine
//     state under db.mu, then publish a fresh SuperVersion with an
//     atomic swap; readers and writers never contend on a lock.
//
//   - Snapshot registration uses its own snapsMu (never nested inside
//     by anything that also wants db.mu to be taken afterwards; the
//     only nesting is db.mu → snapsMu in compaction picks). Loading
//     visibleSeq inside snapsMu gives compaction the ordering proof it
//     needs — see NewSnapshot.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xpointdb/internal/bgpool"
	"xpointdb/internal/clock"
	"xpointdb/internal/costmodel"
	"xpointdb/internal/events"
	"xpointdb/internal/manifest"
	"xpointdb/internal/memtable"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("engine: database is closed")

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("engine: key not found")

// ErrBackground wraps a latched background error. Once a WAL sync or
// MANIFEST write fails, the DB cannot honor its durability contract
// for further writes, so every subsequent write fails fast with an
// error matching this (RocksDB's background-error semantics) instead
// of acknowledging data that may not survive a crash. Reads still
// work; reopening the DB recovers to the last durable state.
var ErrBackground = errors.New("engine: background error")

// flushedMem is an immutable memtable queued for flushing, together
// with the WAL file that covers it and the sequence watermark at its
// rotation: once this memtable is flushed, every sequence ≤ maxSeq is
// durable in SSTs (rotation waits for in-flight groups, so no later
// memtable holds earlier sequences). The watermark becomes the
// MANIFEST's LastSeq, which recovery uses both to skip already-flushed
// WAL batches and to restore read visibility.
type flushedMem struct {
	mem    *memtable.Memtable
	walNum uint64
	maxSeq uint64
	reason string // rotation trigger, reported in flush events
}

// DB is the key-value store.
type DB struct {
	opts    Options
	clk     clock.Clock
	fs      vfs.FS
	walFS   vfs.FS
	cost    *costmodel.Model
	metrics *Metrics
	tables  *tableCache

	// shared is the set of resources this engine opened in (shared.go)
	// and index its place there: its stall source at the controller,
	// its pool tag and its space-key namespace. ownsShared marks a set
	// of one made by Open, which the engine reports and closes as its
	// own. controller, pool, space and ev are the set's, copied at
	// open so the hot paths load one pointer; space is nil without a
	// budget, ev when nothing listens (otherwise it stamps this
	// engine's shard tag).
	shared     *Shared
	index      int
	ownsShared bool
	controller *throttle.Controller
	pool       *bgpool.Pool
	space      *SpaceManager
	spaceSub   int // this DB's ladder subscription id at space
	ev         events.Listener

	mu     clock.Mutex
	bgCond clock.Cond // broadcast on any background state change
	// recoveryCond wakes only the recovery worker (latch set, Resume
	// finished, close). A dedicated cond keeps the idle worker out of
	// the hot-path bgCond broadcast storm.
	recoveryCond clock.Cond

	mem  *memtable.Memtable
	imms []flushedMem

	// sv is the current SuperVersion (superversion.go): the read
	// path's atomically swapped {mem, imms, version} bundle. nil once
	// Close has retired it. Installers write it under db.mu; readers
	// pin it lock-free via acquireSV.
	sv atomic.Pointer[superVersion]

	// openIters counts live iterators, each holding a SuperVersion
	// pin; Close reports a leak error when any remain.
	openIters atomic.Int64

	walWriter *wal.Writer
	walFile   vfs.File
	walNum    uint64

	vs           *manifest.Set
	manifestBusy bool

	// write queue state (write.go)
	writers       []*writer
	pendingGroups []*commitGroup

	lastSeq    uint64 // newest assigned sequence number (under mu)
	visibleSeq atomic.Uint64

	flushing   bool
	compacting bool
	// picker is the compaction policy (picker.go): pick shape and
	// cursor state live there; the engine owns only the mechanism.
	picker     *compactionPicker
	stallState throttle.State
	// spaceState is the space-budget degradation-ladder state (space.go),
	// max-merged with the L0 state in updateStallStateLocked. Updated by
	// the SpaceManager subscription under db.mu. spaceStopEpoch counts
	// ladder transitions; a space-stall watchdog armed on an entry into
	// Stopped only fires if the epoch it captured is still current.
	spaceState     throttle.State
	spaceStopEpoch uint64
	closed         bool
	liveWorkers    int
	memBudget      int64 // current memtable size target (adaptive L0)

	// scrubDebt is the scrubber's accumulated pacing time owed; only
	// the scrub worker touches it (scrub.go).
	scrubDebt time.Duration

	// Error-handler state (errorhandler.go, recovery.go). bgErr is the
	// latched background error (nil = healthy); once latched it is
	// always a *BackgroundError and bgSeverity mirrors its severity.
	// softErrs holds soft failures currently retrying in place, by op.
	// recovering is true while an automatic or manual recovery attempt
	// runs (Close waits on it); recoveryGaveUp means the automatic
	// budget is exhausted — the latch stays recoverable via Resume.
	bgErr          error
	bgSeverity     Severity
	softErrs       map[string]error
	recovering     bool
	recoveryGaveUp bool
	// sweeps counts in-flight deleteObsoleteFiles calls; recovery
	// quiesces on it before mutating version-set state outside db.mu.
	sweeps int
	// keptOutputs are SSTs of failed jobs left on disk because a latched
	// manifest failure may name them (removeUninstalledOutputs); the
	// manifest roll that heals the latch removes them.
	keptOutputs []uint64

	// snapsMu guards snapshots, which maps live snapshots to their
	// pinned sequence numbers; compaction preserves versions at these
	// boundaries. A dedicated mutex keeps snapshot acquisition off
	// db.mu (lock order where both are held: db.mu → snapsMu).
	snapsMu   sync.Mutex
	snapshots map[*Snapshot]uint64

	// windows is the free list of compaction input windows (bulkread.go).
	windows windowPool

	// Case study B's window counters (atomics; adaptive.go), bumped only
	// with Options.AdaptiveL0. Each has a cache line of its own: the
	// reader and the writer bump them from different cores.
	_            cacheLinePad
	windowReads  atomic.Int64
	_            cacheLinePad
	windowWrites atomic.Int64
	_            cacheLinePad
}

// cacheLinePad keeps the fields on either side of it off one cache line.
type cacheLinePad [64]byte

// Open opens (creating if necessary) a database on opts.FS: a set of
// one engine that owns its Shared.
func Open(opts Options) (*DB, error) {
	sh := NewShared(opts, 1, 0)
	db, err := sh.open(0, opts, true)
	if err != nil {
		sh.Close()
		return nil, err
	}
	// Serve last, with the workers running, so no handler can observe
	// a half-open DB.
	if err := sh.Plane.Serve(db.WritePrometheus, db.StatsReport, db.healthz); err != nil {
		_ = db.Close()
		return nil, fmt.Errorf("engine: ops server: %w", err)
	}
	return db, nil
}

// Open opens engine i of the set on opts.FS. Of opts, what NewShared
// read is not read again; the caller closes the engine, then sh.
func (sh *Shared) Open(i int, opts Options) (*DB, error) { return sh.open(i, opts, false) }

func (sh *Shared) open(i int, opts Options, owned bool) (*DB, error) {
	if opts.FS == nil {
		return nil, errors.New("engine: Options.FS is required")
	}
	opts = opts.withDefaults()
	opts.Clock = sh.clk // a set runs on one clock
	clk := sh.clk

	db := &DB{
		opts:       opts,
		clk:        clk,
		fs:         opts.FS,
		walFS:      opts.WALFS,
		cost:       opts.CostModel,
		metrics:    newMetrics(clk),
		shared:     sh,
		index:      i,
		ownsShared: owned,
		controller: sh.Controller,
		pool:       sh.Pool,
		space:      sh.Space,
		ev:         sh.listener(i),
		memBudget:  opts.MemtableSize,
		snapshots:  make(map[*Snapshot]uint64),
	}
	if db.walFS == nil {
		db.walFS = db.fs
	}
	// Engines allocate the same small file numbers, far below 2^48; the
	// tag in the high bits keeps their blocks apart in the one cache.
	db.tables = newTableCache(clk, db.fs, sh.Blocks, uint64(sh.tag(i))<<48)
	db.picker = newCompactionPicker(&db.opts)
	db.mu = clk.NewMutex()
	db.bgCond = clk.NewCond(db.mu)
	db.recoveryCond = clk.NewCond(db.mu)

	if err := db.openOrRecover(); err != nil {
		return nil, err
	}

	db.mu.Lock()
	db.startWorkerLocked("flush-worker", db.flushWorker)
	db.startWorkerLocked("compact-worker", db.compactWorker)
	if opts.AdaptiveL0 {
		db.startWorkerLocked("adaptive-l0", db.adaptiveWorker)
	}
	db.startWorkerLocked("recovery-worker", db.recoveryWorker)
	if !opts.DisableScrub {
		db.startWorkerLocked("scrub-worker", db.scrubWorker)
	}
	db.mu.Unlock()

	if db.space != nil {
		db.seedSpaceAccounting()
		db.spaceSub = db.space.subscribe(db.spaceStateChanged)
	}

	db.mu.Lock()
	if db.space != nil {
		db.spaceState = db.space.State()
	}
	db.updateStallStateLocked()
	db.mu.Unlock()
	return db, nil
}

// openOrRecover builds the initial state: fresh DB or manifest + WAL
// replay.
func (db *DB) openOrRecover() error {
	names, err := db.fs.List()
	if err != nil {
		return fmt.Errorf("engine: list db dir: %w", err)
	}
	hasCurrent := false
	for _, n := range names {
		if n == manifest.CurrentName {
			hasCurrent = true
			break
		}
	}

	if hasCurrent {
		db.vs, err = manifest.Recover(db.fs)
		if err != nil {
			return err
		}
		if err := db.replayWALs(); err != nil {
			return err
		}
	} else {
		db.vs, err = manifest.Create(db.fs)
		if err != nil {
			return err
		}
	}
	db.lastSeq = db.vs.LastSeq
	db.visibleSeq.Store(db.lastSeq)
	db.mem = memtable.New(db.memBudget)
	if err := db.newWALLocked(); err != nil {
		return err
	}
	db.sweepOrphansAtOpen()
	// Publish the initial SuperVersion. No lock needed: background
	// workers and readers do not exist yet.
	db.installSuperVersionLocked("open")
	return nil
}

// sweepOrphansAtOpen removes directory leftovers a crash or failed
// background job left behind: SSTs no version references (partial
// flush/compaction outputs, files whose deleting edit was replayed)
// and superseded manifests. Runtime SST deletion is reference-driven
// and never rescans the directory, so this one-shot scan — after
// recovery, before any worker or reader exists — is the only place
// unknown files are reaped, and it is race-free by construction.
func (db *DB) sweepOrphansAtOpen() {
	names, err := db.fs.List()
	if err != nil {
		return
	}
	live := db.vs.LiveFileNums()
	manifestNum := db.vs.ManifestNum()
	for _, n := range names {
		switch t, num := manifest.ParseName(n); {
		case t == manifest.TypeSST && !live[num]:
			_ = db.fs.Remove(n)
		case t == manifest.TypeManifest && num != manifestNum:
			_ = db.fs.Remove(n)
		}
	}
}

// newWALLocked rotates to a fresh WAL file. Despite the name it is
// called during open (no lock needed) and from the switch path, which
// must NOT hold db.mu (file creation charges the device).
func (db *DB) newWALLocked() error {
	if db.opts.DisableWAL {
		return nil
	}
	num := db.vs.AllocFileNum()
	f, err := db.walFS.Create(manifest.WALName(num))
	if err != nil {
		return fmt.Errorf("engine: create wal: %w", err)
	}
	db.installWALLocked(num, f)
	db.spaceTrack(manifest.WALName(num), 0)
	return nil
}

// replayWALs re-applies every surviving WAL in file-number order.
func (db *DB) replayWALs() error {
	names, err := db.walFS.List()
	if err != nil {
		return err
	}
	type lognum struct {
		name string
		num  uint64
	}
	var logs []lognum
	for _, n := range names {
		if t, num := manifest.ParseName(n); t == manifest.TypeWAL && num >= db.vs.LogNum {
			logs = append(logs, lognum{n, num})
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i].num < logs[j].num })

	mem := memtable.New(db.memBudget)
	maxSeq := db.vs.LastSeq
	for _, lg := range logs {
		f, err := db.walFS.Open(lg.name)
		if err != nil {
			return err
		}
		seq, err := replayLogInto(f, mem, db.vs.LastSeq)
		f.Close()
		if err != nil {
			return fmt.Errorf("engine: replay %s: %w", lg.name, err)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	db.vs.MarkSeq(maxSeq)
	if !mem.Empty() {
		// Flush the recovered memtable straight to L0 so recovery
		// leaves no WAL dependencies behind. No SuperVersion exists
		// yet, so the edit goes to the version set directly; a failure
		// is latched as commitEditWith would, so the flush job keeps an
		// output the MANIFEST may already name.
		commit := func(edit *manifest.Edit) error {
			err := db.vs.LogAndApply(edit)
			db.mu.Lock()
			db.setBackgroundErrorLocked(opManifestAppend, err)
			db.mu.Unlock()
			return err
		}
		db.mu.Lock()
		_, err := db.flushImmLocked(flushedMem{mem: mem, maxSeq: maxSeq, reason: "recovery"}, commit)
		if err != nil {
			return err
		}
	}
	// Old logs are now fully covered by SSTs; note it and clean up.
	logNum := db.vs.NextFileNum
	if err := db.vs.LogAndApply(&manifest.Edit{LogNum: &logNum}); err != nil {
		return err
	}
	for _, lg := range logs {
		_ = db.walFS.Remove(lg.name)
	}
	return nil
}

// Close stops background work and releases all files. Pending writes
// must have completed; new operations fail with ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	// Wait for the write queue to drain.
	for len(db.writers) > 0 || len(db.pendingGroups) > 0 {
		db.bgCond.Wait()
	}
	db.closed = true
	db.bgCond.Broadcast()
	db.recoveryCond.Broadcast()
	// Wait for the counted workers AND any in-flight recovery attempt:
	// a manual Resume runs outside liveWorkers but still swaps WAL and
	// manifest handles that the teardown below is about to close.
	for db.liveWorkers > 0 || db.recovering {
		db.bgCond.Wait()
	}
	bg := db.bgErr
	db.mu.Unlock()

	// Retire the SuperVersion: acquireSV now returns nil, so new reads
	// fail with ErrClosed. If no reader leaked a pin, this is the final
	// reference and the last version unpins; sweep what falls out.
	var err error
	if old := db.sv.Swap(nil); old != nil {
		old.unref()
	}
	db.sweepZombies()
	db.snapsMu.Lock()
	leakedSnaps := len(db.snapshots)
	db.snapsMu.Unlock()
	if leakedIters := db.openIters.Load(); leakedIters > 0 || leakedSnaps > 0 {
		err = fmt.Errorf("engine: close: %d iterator(s) and %d snapshot(s) never closed (leaked SuperVersion pins)",
			leakedIters, leakedSnaps)
	}

	if db.walFile != nil {
		if bg == nil {
			// The final sync covers acknowledged-but-unsynced writes;
			// its failure must be reported, not swallowed — the
			// caller would otherwise believe the data durable.
			if serr := db.walWriter.Sync(); serr != nil && err == nil {
				err = fmt.Errorf("engine: close: wal sync: %w", serr)
			}
		}
		_ = db.walFile.Close()
	}
	db.tables.close()
	if cerr := db.vs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	// Withdraw this engine's stall vote: a closed engine can't keep the
	// set's write budget throttled.
	db.controller.SetSourceState(db.index, throttle.StateClear)
	if db.space != nil {
		// Drop the ladder subscription: the SpaceManager may outlive
		// this engine and must not call back into a closed DB. The
		// tracked file bytes stay — the files are still on disk.
		db.space.unsubscribe(db.spaceSub)
	}
	if db.ownsShared {
		// Last: every background worker has exited, so the event
		// stream the plane drains is complete.
		db.shared.Close()
	}
	return err
}

// BackgroundError returns the latched background error, or nil while
// the DB is healthy.
func (db *DB) BackgroundError() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.bgErr
}

// Metrics returns the engine's live instrumentation.
func (db *DB) Metrics() *Metrics { return db.metrics }

// Engines returns the engines behind the store, which for a bare
// engine is itself — the same accessor shardeddb.DB has, so callers
// reach per-engine state (Metrics, NumLevelFiles, DebugLayout) one way.
func (db *DB) Engines() []*DB { return []*DB{db} }

// Controller exposes the write controller (for experiment inspection).
func (db *DB) Controller() *throttle.Controller { return db.controller }

// Shared returns the set of resources the engine opened in — its own,
// or the ones it shares with the other engines of a sharded store.
func (db *DB) Shared() *Shared { return db.shared }

// NumLevelFiles returns the file count at the given level.
func (db *DB) NumLevelFiles(level int) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.vs.Current().NumFiles(level)
}

// LevelBytes returns total SST bytes at the given level.
func (db *DB) LevelBytes(level int) int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.vs.Current().LevelBytes(level)
}

// DebugLayout renders the LSM layout.
func (db *DB) DebugLayout() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.vs.Current().DebugString()
}

// MemtableBudget returns the current memtable size target.
func (db *DB) MemtableBudget() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.memBudget
}

// SetMemtableBudget adjusts the memtable size target; it takes effect
// at the next memtable switch (used by adaptive L0 management).
func (db *DB) SetMemtableBudget(n int64) {
	if n <= 0 {
		return
	}
	db.mu.Lock()
	db.memBudget = n
	db.mu.Unlock()
}

// updateStallStateLocked recomputes the stall condition from Level-0
// pressure and the space-budget ladder (the max of the two severities)
// and installs it in the controller. Callers hold db.mu.
func (db *DB) updateStallStateLocked() {
	l0 := db.vs.Current().NumFiles(0)
	var s throttle.State
	mid := (db.opts.L0SlowdownTrigger + db.opts.L0StopTrigger) / 2
	switch {
	case l0 >= db.opts.L0StopTrigger:
		s = throttle.StateStopped
	case db.opts.ThrottleMode == throttle.ModeTwoStage && l0 >= mid:
		s = throttle.StateAggressive
	case l0 >= db.opts.L0SlowdownTrigger:
		s = throttle.StateDelayed
	default:
		s = throttle.StateClear
	}
	if db.spaceState > s {
		// Approaching the space budget escalates exactly like L0 depth:
		// delayed, then stopped — reads keep serving either way.
		s = db.spaceState
	}
	if s != db.stallState {
		old := db.stallState
		db.stallState = s
		db.controller.SetSourceState(db.index, s)
		db.emitStallChangeLocked(old, s, l0)
		if s != throttle.StateStopped {
			// Unblock writers waiting on a stop condition.
			db.bgCond.Broadcast()
		}
	}
}

// deleteObsoleteFiles garbage-collects everything no reference can
// reach: zombie SSTs, WALs older than the live log, and superseded
// manifests. SST deletion is purely reference-driven — the zombie list
// (emitted when the last reference to a version drops) is consumed
// here and in releaseSV; the directory is never rescanned for SSTs at
// runtime, so there is no listing/live-set race to reason about. WALs
// and manifests are not refcounted and still use a directory scan
// (listed BEFORE the live numbers are snapshotted, so files created
// later cannot appear in the listing). Call WITHOUT db.mu held.
func (db *DB) deleteObsoleteFiles() {
	db.mu.Lock()
	db.sweeps++
	db.mu.Unlock()
	defer func() {
		db.mu.Lock()
		db.sweeps--
		if db.recovering {
			db.bgCond.Broadcast() // recovery is quiescing on sweeps
		}
		db.mu.Unlock()
	}()

	db.sweepZombies()

	names, err := db.fs.List()
	if err != nil {
		return
	}
	walNames, err := db.walFS.List()
	if err != nil {
		return
	}

	db.mu.Lock()
	logNum := db.vs.LogNum
	curWAL := db.walNum
	manifestNum := db.vs.ManifestNum()
	db.mu.Unlock()

	for _, n := range names {
		if t, num := manifest.ParseName(n); t == manifest.TypeManifest && num != manifestNum {
			// Recovery rolls to a fresh manifest; superseded ones
			// linger only if the post-roll Remove failed.
			_ = db.spaceRemove(db.fs, n)
		}
	}
	for _, n := range walNames {
		if t, num := manifest.ParseName(n); t == manifest.TypeWAL && num < logNum && num != curWAL {
			_ = db.spaceRemove(db.walFS, n)
		}
	}
}
