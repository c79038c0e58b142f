package engine

import (
	"errors"
	"fmt"
	"syscall"

	"xpointdb/internal/events"
	"xpointdb/internal/vfs"
)

// This file is the engine's error-severity layer, modeled on RocksDB's
// ErrorHandler: every background failure (WAL append/sync, WAL
// rotation, MANIFEST append/install, flush, compaction) is classified
// into a Severity that decides what the failure costs — a soft error
// keeps the DB writable while the failing work retries in place, a
// hard error latches writes but is automatically recoverable, a
// fatal/unrecoverable error latches until the process reopens the DB.
// The op decides the severity only: a hard latch is healed by one
// repair whatever its op (recovery.go), corruption by quarantine and
// repair (repair.go).

// Severity ranks a background error by how much of the DB it takes
// down and whether the engine can heal without a reopen.
type Severity int

const (
	// SeverityNone is the healthy state (no error).
	SeverityNone Severity = iota
	// SeveritySoft errors leave the DB writable: the failing
	// background operation (flush, compaction, WAL-rotation create)
	// retries in place and nothing acknowledged is at risk (disk-full
	// on those ops is hard instead; see classifySeverity). Writes
	// may briefly stall if the failure backs up the immutable queue.
	SeveritySoft
	// SeverityHard errors latch writes (fail-fast) because the
	// durability contract cannot be honored, but reads keep working
	// and the resource is retryable: the recovery worker re-probes it
	// and clears the latch without a reopen.
	SeverityHard
	// SeverityFatal errors latch writes with no automatic recovery;
	// in-memory and on-disk state may have diverged, so only a reopen
	// (which replays durable state) is safe.
	SeverityFatal
	// SeverityUnrecoverable marks corruption-class failures: even a
	// reopen may not restore the affected data.
	SeverityUnrecoverable
)

// String returns the RocksDB-style severity name.
func (s Severity) String() string {
	switch s {
	case SeverityNone:
		return "none"
	case SeveritySoft:
		return "soft"
	case SeverityHard:
		return "hard"
	case SeverityFatal:
		return "fatal"
	case SeverityUnrecoverable:
		return "unrecoverable"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Recoverable reports whether the recovery worker can heal this
// severity without a reopen.
func (s Severity) Recoverable() bool {
	return s == SeveritySoft || s == SeverityHard
}

// Health is the DB's coarse condition, derived from the latched error
// state; see DB.Health.
type Health int

const (
	// Healthy: no background error, reads and writes served.
	Healthy Health = iota
	// Degraded: writable, but a soft error is being retried or a
	// recovery attempt is in flight.
	Degraded
	// ReadOnly: a hard error is latched — writes fail fast, reads are
	// served, recovery (automatic or Resume) may clear it.
	ReadOnly
	// Fatal: a fatal/unrecoverable error is latched; only a reopen
	// helps.
	Fatal
)

// String returns the health name used in events and stats reports.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case ReadOnly:
		return "read-only"
	case Fatal:
		return "fatal"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// Severity sentinels for errors.Is: a latched *BackgroundError matches
// ErrBackground always, and exactly one of these by its severity.
var (
	// ErrSoftError matches background errors classified SeveritySoft.
	ErrSoftError = errors.New("engine: soft background error")
	// ErrHardError matches background errors classified SeverityHard.
	ErrHardError = errors.New("engine: hard background error")
	// ErrFatalError matches background errors classified
	// SeverityFatal or SeverityUnrecoverable.
	ErrFatalError = errors.New("engine: fatal background error")
)

// BackgroundError is a classified background failure. The latched
// error returned by writes (and BackgroundError()) is one of these;
// errors.Is matches ErrBackground, the severity sentinels above, and
// the underlying cause chain.
type BackgroundError struct {
	// Op names the failing path (see the op* constants).
	Op string
	// Severity is the classification from the op→severity table.
	Severity Severity
	// Err is the underlying failure.
	Err error
}

// Error renders op, severity and cause.
func (e *BackgroundError) Error() string {
	return fmt.Sprintf("engine: background error (%s, %s): %v", e.Op, e.Severity, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BackgroundError) Unwrap() error { return e.Err }

// Is matches the ErrBackground umbrella and the severity sentinels.
func (e *BackgroundError) Is(target error) bool {
	switch target {
	case ErrBackground:
		return true
	case ErrSoftError:
		return e.Severity == SeveritySoft
	case ErrHardError:
		return e.Severity == SeverityHard
	case ErrFatalError:
		return e.Severity >= SeverityFatal
	}
	return false
}

// The background operation names used for classification, events and
// logs. They predate this layer (PR 2's latch used the same strings),
// so the event stream stays stable.
const (
	opWALAppend       = "wal-append"
	opWALSync         = "wal-sync"
	opWALRotateSync   = "wal-rotate-sync"
	opWALRotateCreate = "wal-rotate-create"
	opManifestAppend  = "manifest-append"
	opManifestInstall = "manifest-install"
	opFlush           = "flush"
	opCompaction      = "compaction"
	opCorruption      = "corruption"
	opSpaceStall      = "space-stall"
)

// ErrMaxSpaceReached is latched by the space-stall watchdog when the
// space-budget ladder has held writers stopped for spaceStallTimeout
// with no transition: the budget is exhausted and no background job can
// reserve the headroom to reclaim anything, so waiting longer cannot
// help (RocksDB's "Max allowed space was reached"). It wraps
// vfs.ErrNoSpace so it classifies and recovers exactly like a device
// ENOSPC: hard latch, wait-for-space recovery, healed by a budget raise
// or a delete.
var ErrMaxSpaceReached = fmt.Errorf("engine: max allowed space reached: %w", vfs.ErrNoSpace)

// classifySeverity is the op→severity table. The reasoning per row:
//
//	wal-append        hard   a failed append may leave a torn record
//	                         that ends replay early; the log is
//	                         poisoned but a fresh WAL + memtable flush
//	                         restores service.
//	wal-sync          hard   acknowledged-unsynced bytes may be lost;
//	                         same recovery as wal-append.
//	wal-rotate-sync   hard   the outgoing log's acked tail may not be
//	                         durable; same recovery.
//	wal-rotate-create soft   the old WAL is intact and still open;
//	                         writes continue and the rotation retries.
//	                         EXCEPT disk-full: hard — see below.
//	manifest-append   hard   the MANIFEST tail may hold a torn edit;
//	                         rolling to a fresh MANIFEST (full
//	                         snapshot) heals it.
//	manifest-install  fatal  the durable append succeeded but the
//	                         in-memory apply failed: disk and memory
//	                         have diverged; only replaying the disk
//	                         (reopen) is safe.
//	flush             soft   the immutable stays queued and the flush
//	                         worker retries; nothing acked is lost.
//	                         EXCEPT disk-full: hard — see below.
//	compaction        soft   inputs remain live; the picker retries.
//	                         EXCEPT disk-full: hard — see below.
//	space-stall       hard   the space-stall watchdog's latch: the
//	                         budget ladder held writers stopped past
//	                         spaceStallTimeout with nothing reclaimable
//	                         in flight. Always ErrMaxSpaceReached
//	                         (disk-full class), so it recovers via the
//	                         wait-for-space path.
//	corruption        hard   a checksum failure in a live SST: writes
//	                         latch while the recovery worker
//	                         quarantines the file and repairs by
//	                         re-compaction (or declares precise data
//	                         loss); reads of undamaged ranges keep
//	                         working throughout.
//
// Disk-full (ENOSPC) on the hard rows stays hard: space can be freed,
// and the recovery worker's backoff keeps probing until it is. On the
// flush, compaction and rotate-create rows disk-full ESCALATES to hard
// (RocksDB's ErrorHandler does the same for SstFileManager-managed
// ENOSPC): retrying in place cannot succeed until space frees. A flush
// or compaction retry loop would spin while the write path stalls on
// the full immutable queue or L0 with no error to fail fast on; a full
// memtable whose rotation cannot create its WAL would fail every write
// while Health stayed Healthy, with no worker ever probing for space.
// Latching hands the situation to the recovery worker's wait-for-space
// path: writers fail fast with ErrBackground, reads keep serving, and
// once the repair's first writes find headroom it runs to the end (for
// the rotation, its WAL swap is the rotation) and the latch clears on
// the same handle. Unknown ops classify as unrecoverable — the
// conservative latch.
func classifySeverity(op string, err error) Severity {
	switch op {
	case opFlush, opCompaction, opWALRotateCreate:
		if isDiskFull(err) {
			return SeverityHard
		}
		return SeveritySoft
	case opWALAppend, opWALSync, opWALRotateSync, opManifestAppend, opCorruption, opSpaceStall:
		return SeverityHard
	case opManifestInstall:
		return SeverityFatal
	}
	return SeverityUnrecoverable
}

// isDiskFull reports an out-of-space failure: a real ENOSPC from the
// OS vfs or an injected vfs.ErrNoSpace (the faultfs capacity quota).
// Both classify identically, so the wait-for-space recovery path is
// exercised by tests exactly as a full device would drive it.
func isDiskFull(err error) bool {
	return errors.Is(err, vfs.ErrNoSpace) || errors.Is(err, syscall.ENOSPC)
}

// healthLocked derives the DB's condition from the error-handler
// state. Callers hold db.mu.
func (db *DB) healthLocked() Health {
	switch {
	case db.bgErr != nil && db.bgSeverity >= SeverityFatal:
		return Fatal
	case db.bgErr != nil:
		return ReadOnly
	case len(db.softErrs) > 0 || db.recovering:
		return Degraded
	default:
		return Healthy
	}
}

// Health returns the DB's current condition: Healthy, Degraded (soft
// error retrying or recovery in flight), ReadOnly (hard error latched,
// reads still served) or Fatal (reopen required).
func (db *DB) Health() Health {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.healthLocked()
}

// setBackgroundErrorLocked classifies and records err for op. Soft
// severities do not latch: the DB stays writable (health Degraded)
// while the failing operation retries in place. Hard and worse latch
// db.bgErr — writes fail fast — and, for recoverable severities, the
// recovery worker engages. First latch wins; a later, strictly more
// severe failure escalates the severity in place. Callers hold db.mu.
func (db *DB) setBackgroundErrorLocked(op string, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, ErrBackground) {
		// Already a latched error echoing back through a caller
		// (e.g. a flush failing because commitEdit saw the latch);
		// classifying it again would double-count.
		return
	}
	sev := classifySeverity(op, err)
	if isDiskFull(err) {
		db.metrics.EnospcErrors.Add(1)
	}
	if sev == SeveritySoft {
		db.noteSoftErrorLocked(op, err)
		return
	}
	if db.bgErr != nil {
		if sev > db.bgSeverity {
			// Escalate (e.g. manifest-install failing during
			// recovery from a wal-sync latch).
			db.bgErr = &BackgroundError{Op: op, Severity: sev, Err: err}
			db.bgSeverity = sev
			db.emitBackgroundError(op, sev, err)
		}
		return
	}
	db.bgErr = &BackgroundError{Op: op, Severity: sev, Err: err}
	db.bgSeverity = sev
	db.metrics.HardErrors.Add(1)
	db.emitBackgroundError(op, sev, err)
	// Wake writers and workers so they observe the latch, and the
	// recovery worker so it engages.
	db.bgCond.Broadcast()
	db.recoveryCond.Broadcast()
}

// relatchLocked replaces the latched error's classification during a
// recovery attempt: the newest failure is what the next attempt faces
// (a manifest append failing while recovering from a WAL error means
// the manifest now has the torn tail, so failed outputs must be kept,
// and a corruption latch becomes one the general repair heals).
// Severity never decreases. Callers hold db.mu.
func (db *DB) relatchLocked(op string, err error) {
	if err == nil || errors.Is(err, ErrBackground) {
		return
	}
	sev := classifySeverity(op, err)
	if sev < db.bgSeverity {
		sev = db.bgSeverity
	}
	db.bgErr = &BackgroundError{Op: op, Severity: sev, Err: err}
	db.bgSeverity = sev
	db.emitBackgroundError(op, sev, err)
}

// noteSoftErrorLocked records a retrying-in-place failure. The op's
// entry is cleared by clearSoftErrorLocked when a later attempt
// succeeds; while any entry is live the DB reports Degraded. Callers
// hold db.mu.
func (db *DB) noteSoftErrorLocked(op string, err error) {
	if err == nil || errors.Is(err, ErrBackground) {
		// A latch echo (the op failed because it observed db.bgErr,
		// which may have cleared since): not a new soft failure.
		return
	}
	if op == opWALRotateCreate {
		// No background worker retries a failed WAL pre-create: the
		// outgoing WAL stays open and intact, and the next write
		// retries the rotation synchronously. Record the event but do
		// not hold the DB in Degraded — there is no in-flight retry
		// whose completion could ever clear it if writes stop.
		db.metrics.SoftErrors.Add(1)
		db.emitBackgroundError(op, SeveritySoft, err)
		return
	}
	if db.softErrs == nil {
		db.softErrs = make(map[string]error)
	}
	if _, active := db.softErrs[op]; !active {
		db.metrics.SoftErrors.Add(1)
		db.emitBackgroundError(op, SeveritySoft, err)
	}
	db.softErrs[op] = err
}

// clearSoftErrorLocked marks op healthy again. Callers hold db.mu.
func (db *DB) clearSoftErrorLocked(op string) {
	delete(db.softErrs, op)
}

// emitBackgroundError records the moment an error was classified.
func (db *DB) emitBackgroundError(op string, sev Severity, err error) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{
		TS:      db.clk.Now(),
		Kind:    events.KindBackgroundError,
		BGError: &events.BGError{Op: op, Error: err.Error(), Severity: sev.String()},
	})
}
