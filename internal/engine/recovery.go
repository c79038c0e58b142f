package engine

import (
	"errors"
	"fmt"
	"time"

	"xpointdb/internal/events"
	"xpointdb/internal/manifest"
)

// Automatic background-error recovery (RocksDB's ErrorHandler
// auto-resume). A hard-severity latch names a single damaged resource
// — a poisoned WAL or a MANIFEST with a possibly-torn tail — and both
// have a repair that needs no reopen: swap in a fresh WAL, or roll to
// a fresh MANIFEST holding a full snapshot. Either way the repair must
// end by draining every queued immutable memtable to Level 0 BEFORE
// the latch clears: acked writes covered by an abandoned log exist
// only in memory, and if new writes could be synced-acked in the fresh
// log first, a crash could persist a suffix of the acked history while
// losing its prefix.
//
// The recovery worker re-tries the repair with exponential backoff up
// to Options.MaxRecoveryAttempts, then gives up and leaves the latch
// to a manual Resume. All attempts — automatic and manual — run under
// db.recovering, which excludes concurrent attempts and is waited on
// by Close.

// recoveryQuantum bounds each slice of a recovery backoff sleep so a
// concurrent Close is noticed promptly (see sleepUnlessClosed).
const recoveryQuantum = 5 * time.Millisecond

// needsRecoveryLocked reports whether an automatic attempt should
// start: a hard (retryable) error is latched, the automatic budget is
// not exhausted, and no attempt is already in flight. Callers hold
// db.mu.
func (db *DB) needsRecoveryLocked() bool {
	return db.bgErr != nil && db.bgSeverity == SeverityHard &&
		!db.recoveryGaveUp && !db.recovering
}

// recoveryWorker is the background auto-resume process, started by
// Open unless Options.DisableAutoRecovery.
func (db *DB) recoveryWorker() {
	db.mu.Lock()
	for {
		for !db.closed && !db.needsRecoveryLocked() {
			db.recoveryCond.Wait()
		}
		if db.closed {
			break
		}
		be := db.bgErr.(*BackgroundError)
		db.recovering = true
		db.mu.Unlock()

		db.emitRecovery(events.KindRecoveryBegin, &events.Recovery{
			Op: be.Op, Severity: be.Severity.String(),
		})
		db.runRecoveryLoop()

		db.mu.Lock()
		db.recovering = false
		db.bgCond.Broadcast()
	}
	db.mu.Unlock()
}

// runRecoveryLoop drives automatic attempts for the latched error
// until it clears, the budget is exhausted, the severity escalates
// beyond repair, or the DB closes. Called with db.recovering set and
// db.mu not held.
func (db *DB) runRecoveryLoop() {
	backoff := db.opts.RecoveryBaseBackoff
	for attempt := 1; ; attempt++ {
		db.mu.Lock()
		if db.closed || db.bgErr == nil {
			db.mu.Unlock()
			return
		}
		be, ok := db.bgErr.(*BackgroundError)
		if !ok || be.Severity != SeverityHard {
			// Escalated mid-recovery (e.g. manifest-install): no
			// repair applies anymore.
			db.mu.Unlock()
			return
		}
		db.mu.Unlock()

		db.metrics.RecoveryAttempts.Add(1)
		db.emitRecovery(events.KindRecoveryAttempt, &events.Recovery{
			Op: be.Op, Severity: be.Severity.String(), Attempt: attempt,
		})
		err := db.recoverOnce(be)
		if err == nil {
			db.metrics.RecoverySuccesses.Add(1)
			db.emitRecovery(events.KindRecoverySuccess, &events.Recovery{
				Op: be.Op, Attempt: attempt, Health: db.Health().String(),
			})
			return
		}
		if errors.Is(err, ErrClosed) {
			return
		}
		if attempt >= db.opts.MaxRecoveryAttempts {
			db.metrics.RecoveryGiveups.Add(1)
			db.mu.Lock()
			db.recoveryGaveUp = true
			db.mu.Unlock()
			db.emitRecovery(events.KindRecoveryGiveup, &events.Recovery{
				Op: be.Op, Attempt: attempt, Error: err.Error(),
			})
			return
		}
		if db.sleepUnlessClosed(backoff, recoveryQuantum) {
			return
		}
		backoff *= 2
		if backoff > db.opts.RecoveryMaxBackoff {
			backoff = db.opts.RecoveryMaxBackoff
		}
	}
}

// recoverOnce executes one repair attempt for the latched error and,
// on success, clears the latch so writers resume. The caller holds
// db.recovering, so no second attempt runs concurrently; writers fail
// fast and the flush/compaction workers idle while the latch is set.
func (db *DB) recoverOnce(be *BackgroundError) error {
	diskFull := isDiskFull(be.Err)
	if diskFull {
		// Wait-for-space: a disk-full latch is healed by headroom, not
		// by retrying the repair into the same wall. Reclaim whatever
		// the engine can free on its own (obsolete WALs, zombie SSTs,
		// stale manifests), then probe for space; a failed probe aborts
		// this attempt so the loop polls with its capped backoff
		// instead of burning a doomed WAL-swap/manifest-roll.
		if err := db.waitForSpaceOnce(); err != nil {
			db.metrics.SpaceWaits.Add(1)
			return err
		}
	}
	var err error
	switch categoryOf(be.Op) {
	case catWAL:
		err = db.recoverWAL()
	case catManifest:
		err = db.recoverManifest()
	case catCorruption:
		err = db.recoverCorruption(be)
	case catSpace:
		err = db.recoverSpace()
	default:
		return fmt.Errorf("engine: no recovery procedure for %q", be.Op)
	}
	if err != nil {
		return err
	}
	if diskFull {
		db.metrics.SpaceRecoveries.Add(1)
	}

	db.mu.Lock()
	// Quiescence before the repair plus fail-fast writers during it
	// mean nothing could have latched concurrently: the only way the
	// latch changed is the repair failing, and it reported success.
	db.bgErr = nil
	db.bgSeverity = SeverityNone
	db.recoveryGaveUp = false
	db.updateStallStateLocked()
	db.bgCond.Broadcast()
	db.mu.Unlock()
	db.deleteObsoleteFiles()
	return nil
}

// quiesceForRecoveryLocked waits until the write path and background
// workers are between operations: no queued writers (under the latch
// they fail fast, so the queue drains), no in-flight commit groups, no
// flush or compaction mid-run, and no obsolete-file sweep reading
// version-set state. Recovery may then swap WAL handles and mutate the
// manifest without racing anything. Returns false if the DB closed
// while waiting. Callers hold db.mu.
func (db *DB) quiesceForRecoveryLocked() bool {
	for !db.closed && (len(db.writers) > 0 || len(db.pendingGroups) > 0 ||
		db.flushing || db.compacting || db.sweeps > 0) {
		db.bgCond.Wait()
	}
	return !db.closed
}

// recoverWAL repairs a poisoned write-ahead log: it creates a
// replacement WAL (the recovery probe — if the device is still failing
// the attempt dies here), swaps it in, rotates the current memtable
// behind it, and drains the immutable queue before the caller clears
// the latch. The abandoned log's handle is closed; the file itself
// stays until the post-recovery sweep, by which time its contents are
// covered by SSTs.
func (db *DB) recoverWAL() error {
	db.mu.Lock()
	if !db.quiesceForRecoveryLocked() {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.opts.DisableWAL {
		db.mu.Unlock()
		return db.recoveryDrainImms()
	}
	newNum := db.vs.AllocFileNum()
	oldNum := db.walNum
	db.mu.Unlock()

	newFile, err := db.walFS.Create(manifest.WALName(newNum))
	if err != nil {
		return fmt.Errorf("engine: recovery wal probe: %w", err)
	}
	db.spaceTrack(manifest.WALName(newNum), 0)

	db.mu.Lock()
	oldFile := db.walFile
	db.installWALLocked(newNum, newFile)
	if !db.mem.Empty() {
		// The mutable memtable's writes live only in the dead log;
		// queue it so the drain below makes them durable in SSTs.
		db.queueMemLocked(oldNum, "recovery")
	}
	db.mu.Unlock()
	if oldFile != nil {
		_ = oldFile.Close()
	}
	return db.recoveryDrainImms()
}

// recoverManifest abandons a MANIFEST whose tail may hold a torn edit:
// it rolls to a fresh manifest holding one full-snapshot edit (nothing
// to replay past), then drains the immutable queue so the latch clears
// with every acked write durable.
func (db *DB) recoverManifest() error {
	db.mu.Lock()
	if !db.quiesceForRecoveryLocked() {
		db.mu.Unlock()
		return ErrClosed
	}
	for db.manifestBusy {
		db.bgCond.Wait()
		if db.closed {
			db.mu.Unlock()
			return ErrClosed
		}
	}
	db.manifestBusy = true
	db.mu.Unlock()

	// Roll mutates only version-set state; every other mutator is
	// either quiesced or excluded by manifestBusy.
	superseded := manifest.ManifestName(db.vs.ManifestNum())
	err := db.vs.Roll()
	if err == nil {
		db.spaceUntrack(superseded) // Roll removed it itself
		db.spaceTrack(manifest.ManifestName(db.vs.ManifestNum()), db.vs.ManifestSize())
	}

	db.mu.Lock()
	db.manifestBusy = false
	var kept []uint64
	if err == nil {
		// The superseded MANIFEST was the only thing that could name an
		// output kept after a failed append; the fresh one snapshots the
		// in-memory version, so whatever that does not hold is garbage
		// now. (A crash before this point leaves it to the open-time
		// orphan sweep.)
		for _, n := range db.keptOutputs {
			if level, _ := db.fileLevelLocked(n); level < 0 {
				kept = append(kept, n)
			}
		}
		db.keptOutputs = nil
	}
	db.bgCond.Broadcast()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	for _, n := range kept {
		_ = db.spaceRemove(db.fs, manifest.SSTName(n))
	}
	return db.recoveryDrainImms()
}

// recoverSpace heals a disk-full flush/compaction latch. The WAL and
// MANIFEST are intact — the latch exists only because SST output could
// not be written — so once waitForSpaceOnce has verified headroom (the
// probe ran before this was called), the repair is simply to drain the
// immutable queue the latch interrupted. Compaction needs no explicit
// redo: its inputs are still live and the picker re-selects them once
// the latch clears.
func (db *DB) recoverSpace() error {
	db.mu.Lock()
	if !db.quiesceForRecoveryLocked() {
		db.mu.Unlock()
		return ErrClosed
	}
	db.mu.Unlock()
	return db.recoveryDrainImms()
}

// recoveryDrainImms flushes every queued immutable memtable to Level 0
// with the flush job, committing the edits with the recovery bypass.
// When it returns nil, every acknowledged write is durable in SSTs —
// the precondition for clearing the latch.
func (db *DB) recoveryDrainImms() error {
	commit := func(edit *manifest.Edit) error { return db.commitEditWith(edit, true) }
	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return ErrClosed
		}
		if len(db.imms) == 0 {
			db.mu.Unlock()
			return nil
		}
		if _, err := db.flushImmLocked(db.imms[0], commit); err != nil {
			return err
		}
	}
}

// Resume manually retries recovery from a latched background error —
// RocksDB's DB::Resume. It returns nil once the DB is healthy (also
// when it already was, or a concurrent automatic attempt wins the
// race), the latched error itself when its severity is not
// recoverable, and the latched error after a failed attempt (the latch
// stays set for a later Resume).
func (db *DB) Resume() error {
	db.mu.Lock()
	for {
		if db.closed {
			db.mu.Unlock()
			return ErrClosed
		}
		if db.bgErr == nil {
			db.mu.Unlock()
			return nil
		}
		if !db.recovering {
			break
		}
		// An attempt is mid-flight; wait for its verdict.
		db.bgCond.Wait()
	}
	be, ok := db.bgErr.(*BackgroundError)
	if !ok || !be.Severity.Recoverable() {
		err := db.bgErr
		db.mu.Unlock()
		return err
	}
	db.recovering = true
	db.mu.Unlock()

	db.metrics.RecoveryAttempts.Add(1)
	db.emitRecovery(events.KindRecoveryBegin, &events.Recovery{
		Op: be.Op, Severity: be.Severity.String(), Manual: true,
	})
	db.emitRecovery(events.KindRecoveryAttempt, &events.Recovery{
		Op: be.Op, Severity: be.Severity.String(), Attempt: 1, Manual: true,
	})
	err := db.recoverOnce(be)

	db.mu.Lock()
	db.recovering = false
	latched := db.bgErr
	db.bgCond.Broadcast()
	// If this manual attempt failed with automatic budget remaining,
	// the worker takes over again.
	db.recoveryCond.Broadcast()
	db.mu.Unlock()

	if err == nil {
		db.metrics.RecoverySuccesses.Add(1)
		db.emitRecovery(events.KindRecoverySuccess, &events.Recovery{
			Op: be.Op, Attempt: 1, Manual: true, Health: db.Health().String(),
		})
		return nil
	}
	db.emitRecovery(events.KindRecoveryGiveup, &events.Recovery{
		Op: be.Op, Attempt: 1, Manual: true, Error: err.Error(),
	})
	if latched != nil {
		return latched
	}
	return err
}
