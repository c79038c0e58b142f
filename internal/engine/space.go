package engine

import (
	"fmt"
	"sync"

	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// Disk-space budget management (RocksDB's SstFileManager analog).
//
// A SpaceManager tracks the live bytes of every SST, WAL and MANIFEST
// file an engine (or a set of sharded engines) holds on disk, plus
// headroom reservations for in-flight background jobs, against
// Options.MaxAllowedSpace. Three mechanisms hang off the accounting:
//
//   - The degradation ladder: as free space shrinks below
//     freeSpaceThreshold of the budget (then half of it), the write controller is
//     escalated Delayed → Stopped — foreground writes slow and then
//     stop while reads keep serving, and the remaining threshold slack
//     is left for background reclamation to work in. ENOSPC is the
//     outcome the ladder exists to prevent.
//   - Reservations: flush and compaction jobs reserve their projected
//     output bytes before running and are deferred (not failed) while
//     the budget cannot cover them.
//   - Wait-for-space recovery (recovery.go): when a disk-full error
//     latches anyway — a real ENOSPC or an injected quota squeeze —
//     the recovery worker reclaims obsolete files and waits for the
//     budget to clear before re-attempting the repair, whose first
//     writes probe the filesystem.
//
// One SpaceManager serves every engine of a Shared set (shared.go), so
// a hot shard consumes headroom all shards observe; per-file keys are
// namespaced by the engine's index in the set to keep equal file names
// from colliding across shards.

// SpaceManager tracks live file bytes and reservations against a byte
// budget. The zero value is not usable; create one with
// NewSpaceManager.
type SpaceManager struct {
	mu       sync.Mutex
	budget   int64 // 0 = unlimited
	files    map[string]int64
	used     int64
	reserved int64
	state    throttle.State
	subs     map[int]func(throttle.State)
	nextSub  int
}

// NewSpaceManager returns a manager enforcing budget bytes (0 =
// unlimited).
func NewSpaceManager(budget int64) *SpaceManager {
	return &SpaceManager{
		budget: budget,
		files:  make(map[string]int64),
		subs:   make(map[int]func(throttle.State)),
	}
}

// SetBudget adjusts the byte budget at runtime (0 = unlimited).
// Growing it can clear a space stall immediately: subscribers are
// notified of the resulting ladder state.
func (sm *SpaceManager) SetBudget(bytes int64) {
	sm.mu.Lock()
	sm.budget = bytes
	sm.notifyLocked()
}

// Budget returns the current byte budget (0 = unlimited).
func (sm *SpaceManager) Budget() int64 {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.budget
}

// Used returns the tracked live file bytes.
func (sm *SpaceManager) Used() int64 {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.used
}

// Reserved returns the bytes reserved by in-flight background jobs.
func (sm *SpaceManager) Reserved() int64 {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.reserved
}

// State returns the current degradation-ladder state.
func (sm *SpaceManager) State() throttle.State {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.stateLocked()
}

// stateLocked computes the ladder state: with budget b and t =
// freeSpaceThreshold, free space below b·t delays writes and below b·t/2 stops them —
// the paper's two-stage throttling keyed on space instead of L0 depth.
// Reservations count as consumed: a job's projected output is space
// the foreground can no longer have.
func (sm *SpaceManager) stateLocked() throttle.State {
	if sm.budget <= 0 {
		return throttle.StateClear
	}
	free := sm.budget - sm.used - sm.reserved
	slow := int64(float64(sm.budget) * freeSpaceThreshold)
	switch {
	case free <= slow/2:
		return throttle.StateStopped
	case free <= slow:
		return throttle.StateDelayed
	default:
		return throttle.StateClear
	}
}

// notifyLocked recomputes the ladder state and, on a change, calls
// every subscriber after releasing sm.mu (subscribers take engine
// locks). Callers hold sm.mu; it is released on return.
func (sm *SpaceManager) notifyLocked() {
	s := sm.stateLocked()
	if s == sm.state {
		sm.mu.Unlock()
		return
	}
	sm.state = s
	fns := make([]func(throttle.State), 0, len(sm.subs))
	for _, fn := range sm.subs {
		fns = append(fns, fn)
	}
	sm.mu.Unlock()
	for _, fn := range fns {
		fn(s)
	}
}

// subscribe registers fn to be called (without sm.mu held) whenever
// the ladder state changes; it returns an id for unsubscribe.
func (sm *SpaceManager) subscribe(fn func(throttle.State)) int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	id := sm.nextSub
	sm.nextSub++
	sm.subs[id] = fn
	return id
}

func (sm *SpaceManager) unsubscribe(id int) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	delete(sm.subs, id)
}

// setFile records (or updates) the tracked size of one file.
func (sm *SpaceManager) setFile(key string, size int64) {
	sm.mu.Lock()
	sm.used += size - sm.files[key]
	sm.files[key] = size
	sm.notifyLocked()
}

// grow adds delta bytes to one tracked file (WAL/MANIFEST appends).
func (sm *SpaceManager) grow(key string, delta int64) {
	sm.mu.Lock()
	sm.files[key] += delta
	sm.used += delta
	sm.notifyLocked()
}

// untrack drops a deleted file from the accounting.
func (sm *SpaceManager) untrack(key string) {
	sm.mu.Lock()
	if size, ok := sm.files[key]; ok {
		sm.used -= size
		delete(sm.files, key)
	}
	sm.notifyLocked()
}

// TryReserve reserves headroom for a background job's projected
// output. It fails (so the job defers) when the budget cannot cover
// it; a successful reservation must be paired with Release.
func (sm *SpaceManager) TryReserve(bytes int64) bool {
	sm.mu.Lock()
	if sm.budget > 0 && sm.used+sm.reserved+bytes > sm.budget {
		sm.mu.Unlock()
		return false
	}
	sm.reserved += bytes
	sm.notifyLocked()
	return true
}

// Release returns a reservation taken with TryReserve.
func (sm *SpaceManager) Release(bytes int64) {
	sm.mu.Lock()
	sm.reserved -= bytes
	if sm.reserved < 0 {
		sm.reserved = 0
	}
	sm.notifyLocked()
}

// ---------------------------------------------------------------------
// DB integration

// spaceKey namespaces a file name inside a (possibly shared)
// SpaceManager: shards allocate the same small file numbers, so equal
// names must not collide across sharers.
func (db *DB) spaceKey(name string) string {
	return fmt.Sprintf("s%d/%s", db.index, name)
}

func (db *DB) spaceTrack(name string, size int64) {
	if db.space != nil {
		db.space.setFile(db.spaceKey(name), size)
	}
}

func (db *DB) spaceGrow(name string, delta int64) {
	if db.space != nil {
		db.space.grow(db.spaceKey(name), delta)
	}
}

func (db *DB) spaceUntrack(name string) {
	if db.space != nil {
		db.space.untrack(db.spaceKey(name))
	}
}

// spaceStateChanged is the DB's SpaceManager subscription: it folds
// the ladder state into the stall computation and, on an entry into
// Stopped, arms the space-stall watchdog. Called without sm.mu or
// db.mu held.
func (db *DB) spaceStateChanged(s throttle.State) {
	db.mu.Lock()
	if !db.closed && db.spaceState != s {
		db.spaceState = s
		db.updateStallStateLocked()
		// Every transition bumps the epoch, disarming any watchdog
		// from a previous Stopped entry; entering Stopped arms a new
		// one against the fresh epoch.
		db.spaceStopEpoch++
		if s == throttle.StateStopped && db.opts.SpaceStallTimeout > 0 {
			epoch := db.spaceStopEpoch
			db.startWorkerLocked("space-watchdog", func() { db.spaceStallWatchdog(epoch) })
		}
	}
	db.mu.Unlock()
}

// spaceStallWatchdog bounds a space-Stopped write stall. A stopped
// ladder means foreground writes are parked AND background jobs cannot
// reserve headroom — so if nothing frees space on its own (another
// shard's delete, an operator budget raise), no amount of waiting ends
// the stall: it is a silent, permanent wedge. After SpaceStallTimeout
// of uninterrupted Stopped, the watchdog latches ErrMaxSpaceReached —
// a hard disk-full-class error — so stalled writers fail fast with
// ErrBackground, reads keep serving, and the wait-for-space recovery
// loop (which reclaims obsolete files and probes both the filesystem
// and the budget ladder) owns the healing. RocksDB surfaces the same
// condition as a max_allowed_space background error rather than an
// unbounded write stall.
func (db *DB) spaceStallWatchdog(epoch uint64) {
	if db.sleepUnlessClosed(db.opts.SpaceStallTimeout, recoveryQuantum) {
		return // closed
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.bgErr != nil ||
		db.spaceStopEpoch != epoch || db.spaceState != throttle.StateStopped {
		return // the stall ended (or something else already latched)
	}
	db.setBackgroundErrorLocked(opSpaceStall, ErrMaxSpaceReached)
}

// seedSpaceAccounting records every pre-existing data and WAL file at
// open, so a reopened engine starts with accurate usage. Called from
// Open after recovery, before workers exist.
func (db *DB) seedSpaceAccounting() {
	if db.space == nil {
		return
	}
	seed := func(fs interface {
		List() ([]string, error)
		Size(string) (int64, error)
	}) {
		names, err := fs.List()
		if err != nil {
			return
		}
		for _, n := range names {
			if size, err := fs.Size(n); err == nil {
				db.spaceTrack(n, size)
			}
		}
	}
	seed(db.fs)
	if db.walFS != db.fs {
		seed(db.walFS)
	}
}

// spaceRemove deletes a file and drops it from the space accounting —
// the single chokepoint for engine file deletion.
func (db *DB) spaceRemove(fs interface{ Remove(string) error }, name string) error {
	err := fs.Remove(name)
	if err == nil {
		db.spaceUntrack(name)
	}
	return err
}

// reserveSpace blocks until bytes of headroom can be reserved (or the
// DB closes, returning false) — the deferred-not-failed policy for
// background jobs whose projected output would overrun the budget.
// Deferral polls with a timed sleep: reclamation, a budget raise, or
// another shard's delete can free headroom at any time. Call without
// db.mu; a true return must be paired with sm.Release(bytes).
func (db *DB) reserveSpace(bytes int64) bool {
	if db.space == nil {
		return true
	}
	deferred := false
	for {
		db.mu.Lock()
		closed := db.closed
		db.mu.Unlock()
		if closed {
			return false
		}
		if db.space.TryReserve(bytes) {
			return true
		}
		if !deferred {
			deferred = true
			db.metrics.SpaceDeferrals.Add(1)
		}
		db.clk.Sleep(flushRetryBackoff)
	}
}

// waitForSpaceOnce is the wait-for-space step of a disk-full recovery
// attempt: reclaim everything the engine can free on its own (obsolete
// WALs, zombie SSTs, superseded manifests), then require the space
// budget to have left its Stopped line — a filesystem with room is
// useless while the engine's own ladder would re-stop the first write,
// so repairing then would only flap the latch. The filesystem itself is
// probed by the repair's first writes, the fresh WAL and the MANIFEST
// roll. A non-nil return means space is still exhausted; the recovery
// loop's capped backoff schedules the next poll. Called without db.mu.
func (db *DB) waitForSpaceOnce() error {
	db.deleteObsoleteFiles()
	if db.space != nil && db.space.State() == throttle.StateStopped {
		return fmt.Errorf("engine: wait for space: budget still exhausted (used=%d reserved=%d budget=%d): %w",
			db.space.Used(), db.space.Reserved(), db.space.Budget(), vfs.ErrNoSpace)
	}
	return nil
}
