package engine

import (
	"errors"
	"fmt"
	"time"

	"xpointdb/internal/events"
	"xpointdb/internal/manifest"
)

// Automatic background-error recovery (RocksDB's ErrorHandler
// auto-resume). Every hard latch but corruption — a poisoned WAL, a
// MANIFEST with a possibly-torn tail, a disk-full flush, compaction or
// WAL rotation, the space-stall watchdog — is healed by one procedure,
// recoverLatch, that needs no reopen and does not ask which resource
// failed: it swaps in a fresh WAL, rolls to a fresh MANIFEST holding a
// full snapshot, drains every queued immutable memtable to Level 0 and
// retires the abandoned log, all BEFORE the latch clears. Acked writes
// covered by an abandoned log exist only in memory, and if new writes
// could be synced-acked in the fresh log first, a crash could persist a
// suffix of the acked history while losing its prefix. A corruption
// latch is healed by quarantine and repair instead (repair.go).
//
// The recovery worker, which every open store runs, re-tries the
// repair with exponential backoff up to maxRecoveryAttempts, then gives
// up and leaves the latch to a manual Resume. All attempts — automatic
// and manual — run under db.recovering, which excludes concurrent
// attempts and is waited on by Close.

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
// Open.
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
	backoff := recoveryBaseBackoff
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

		err := db.recoveryAttempt(be, attempt, false)
		if err == nil || errors.Is(err, ErrClosed) {
			return
		}
		if attempt >= maxRecoveryAttempts {
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
		if backoff > recoveryMaxBackoff {
			backoff = recoveryMaxBackoff
		}
	}
}

// recoveryAttempt is attempt number n at the latched error be, automatic
// or manual: it is counted and announced, recoverOnce runs, and a
// success is counted and announced with the health it leaves. What a
// failure costs — a backoff, a giveup, an error to Resume's caller —
// is the caller's. Called with db.recovering set and db.mu not held.
func (db *DB) recoveryAttempt(be *BackgroundError, n int, manual bool) error {
	db.metrics.RecoveryAttempts.Add(1)
	db.emitRecovery(events.KindRecoveryAttempt, &events.Recovery{
		Op: be.Op, Severity: be.Severity.String(), Attempt: n, Manual: manual,
	})
	err := db.recoverOnce(be)
	if err == nil {
		db.metrics.RecoverySuccesses.Add(1)
		db.emitRecovery(events.KindRecoverySuccess, &events.Recovery{
			Op: be.Op, Attempt: n, Manual: manual, Health: db.Health().String(),
		})
	}
	return err
}

// recoverOnce executes one repair attempt for the latched error and,
// on success, clears the latch so writers resume. The caller holds
// db.recovering, so no second attempt runs concurrently; writers fail
// fast and the flush/compaction workers idle while the latch is set.
func (db *DB) recoverOnce(be *BackgroundError) error {
	diskFull := isDiskFull(be.Err)
	var err error
	switch {
	case be.Op == opCorruption:
		err = db.recoverCorruption(be)
	case diskFull:
		// Wait-for-space: a disk-full latch is healed by headroom, not
		// by retrying the repair into the same wall. A failed wait, or
		// a repair whose first writes still find the disk full, aborts
		// this attempt so the loop polls with its capped backoff.
		if err = db.waitForSpaceOnce(); err == nil {
			err = db.recoverLatch()
		}
		if isDiskFull(err) {
			db.metrics.SpaceWaits.Add(1)
		}
	default:
		err = db.recoverLatch()
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

// recoverLatch is the one repair for every recoverable latch except
// corruption. Whichever resource failed, it runs every step; a step
// whose resource is fine costs one small file:
//
//  1. Quiesce.
//  2. Create a fresh WAL — the probe: a device still failing, or a disk
//     still full, fails the attempt here — and install it. A non-empty
//     mutable memtable is queued behind the log it abandons.
//  3. Roll the MANIFEST to a fresh file holding one snapshot edit. The
//     roll comes before any edit the repair appends: a manifest-append
//     latch may have left a torn tail, and replay stops at it.
//  4. Drain every immutable memtable to Level 0.
//  5. Record the fresh WAL as the MANIFEST's LogNum, retiring the
//     abandoned log. A flush moves LogNum, but an empty memtable is
//     never flushed, so without this edit a reopen would replay the
//     abandoned log — and with it a write whose sync failed.
//  6. Remove the outputs failed jobs kept while the superseded
//     MANIFEST might name them.
//
// The caller clears the latch only after all of it, so the drain and
// the LogNum edit are durable first (prefix durability). With
// DisableWAL there is no log to swap or retire: steps 2 and 5 are
// skipped. A failed step leaves the latch set, and the next attempt
// starts over at step 1.
func (db *DB) recoverLatch() error {
	db.mu.Lock()
	if !db.quiesceForRecoveryLocked() {
		db.mu.Unlock()
		return ErrClosed
	}
	walNum := db.vs.AllocFileNum()
	db.mu.Unlock()

	if !db.opts.DisableWAL {
		f, err := db.walFS.Create(manifest.WALName(walNum))
		if err != nil {
			return fmt.Errorf("engine: recovery wal probe: %w", err)
		}
		db.spaceTrack(manifest.WALName(walNum), 0)
		db.mu.Lock()
		old, oldNum := db.walFile, db.walNum
		db.installWALLocked(walNum, f)
		if !db.mem.Empty() {
			db.queueMemLocked(oldNum, "recovery")
		}
		db.mu.Unlock()
		if old != nil {
			_ = old.Close()
		}
	}

	// Roll mutates only version-set state; every other mutator is
	// either quiesced or excluded by manifestBusy.
	db.mu.Lock()
	for db.manifestBusy && !db.closed {
		db.bgCond.Wait()
	}
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.manifestBusy = true
	db.mu.Unlock()
	superseded := manifest.ManifestName(db.vs.ManifestNum())
	err := db.vs.Roll()
	if err == nil {
		db.spaceUntrack(superseded) // Roll removed it itself
		db.spaceTrack(manifest.ManifestName(db.vs.ManifestNum()), db.vs.ManifestSize())
	}
	db.mu.Lock()
	db.manifestBusy = false
	db.bgCond.Broadcast()
	db.mu.Unlock()
	if err != nil {
		return err
	}

	commit := func(edit *manifest.Edit) error { return db.commitEditWith(edit, true) }
	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return ErrClosed
		}
		if len(db.imms) == 0 {
			break
		}
		if _, err := db.flushImmLocked(db.imms[0], commit); err != nil {
			return err
		}
	}
	db.mu.Unlock()
	if !db.opts.DisableWAL {
		if err := commit(&manifest.Edit{LogNum: &walNum}); err != nil {
			return err
		}
	}

	// The superseded MANIFEST was the only thing that could name a kept
	// output; the fresh one snapshots the in-memory version, so whatever
	// that does not hold is garbage now. (A crash before this point
	// leaves it to the open-time orphan sweep.)
	db.mu.Lock()
	var kept []uint64
	for _, n := range db.keptOutputs {
		if level, _ := db.vs.Current().File(n); level < 0 {
			kept = append(kept, n)
		}
	}
	db.keptOutputs = nil
	db.mu.Unlock()
	for _, n := range kept {
		_ = db.spaceRemove(db.fs, manifest.SSTName(n))
	}
	return nil
}

// Resume manually retries recovery from a latched background error —
// RocksDB's DB::Resume. It returns nil once the DB is healthy (also
// when it already was, or a concurrent automatic attempt wins the
// race), the latched error itself when its severity is not
// recoverable, and the latched error after a failed attempt (the latch
// stays set for a later Resume).
func (db *DB) Resume() error {
	db.mu.Lock()
	// An attempt in flight is waited out, so a nil return finds the DB
	// healthy rather than still winding that attempt down.
	for db.recovering && !db.closed {
		db.bgCond.Wait()
	}
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.bgErr == nil {
		db.mu.Unlock()
		return nil
	}
	be, ok := db.bgErr.(*BackgroundError)
	if !ok || !be.Severity.Recoverable() {
		err := db.bgErr
		db.mu.Unlock()
		return err
	}
	db.recovering = true
	db.mu.Unlock()

	db.emitRecovery(events.KindRecoveryBegin, &events.Recovery{
		Op: be.Op, Severity: be.Severity.String(), Manual: true,
	})
	err := db.recoveryAttempt(be, 1, true)

	db.mu.Lock()
	db.recovering = false
	latched := db.bgErr
	db.bgCond.Broadcast()
	// If this manual attempt failed with automatic budget remaining,
	// the worker takes over again.
	db.recoveryCond.Broadcast()
	db.mu.Unlock()

	if err == nil {
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
