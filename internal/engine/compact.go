package engine

import (
	"bytes"

	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
)

// compaction describes one picked compaction: the policy's output
// (picker.go), executed by the job runner (compactionjob.go).
type compaction struct {
	level       int // input level
	outputLevel int
	score       float64              // urgency at pick time (1.0 = at trigger)
	inputs      []*manifest.FileMeta // files at level
	overlaps    []*manifest.FileMeta // files at outputLevel
	// base is the version the pick was made against; used for
	// tombstone elision checks.
	base *manifest.Version
	// snaps holds the live snapshot boundaries (ascending) at pick
	// time; the merge keeps the newest version per stripe.
	snaps []uint64
	// recovery marks a repair compaction run by the recovery worker
	// while the corruption latch is set: its version edit commits with
	// the fail-fast bypass.
	recovery bool

	// trivialMove marks a job with nothing to merge: the inputs are
	// relocated to the output level by a pure manifest edit, no I/O.
	trivialMove bool
	// subs are the disjoint key sub-ranges the merge splits into
	// (always at least one when trivialMove is false).
	subs []subrange
}

// targetLevelBytes returns the size target for a level ≥ 1.
func (db *DB) targetLevelBytes(level int) int64 {
	return levelTargetBytes(&db.opts, level)
}

// pickCompactionLocked asks the picker for the most urgent compaction,
// or nil. Called with db.mu held.
func (db *DB) pickCompactionLocked() *compaction {
	return db.picker.pick(db.vs.Current(), db.liveSnapshotSeqs())
}

func keyRangeOf(files []*manifest.FileMeta) (smallest, largest []byte) {
	for _, f := range files {
		us, ul := keys.UserKey(f.Smallest), keys.UserKey(f.Largest)
		if smallest == nil || bytes.Compare(us, smallest) < 0 {
			smallest = us
		}
		if largest == nil || bytes.Compare(ul, largest) > 0 {
			largest = ul
		}
	}
	return smallest, largest
}

// compactWorker is the background compaction scheduler loop: pick by
// policy, price the job by stall risk for the shared pool, reserve
// space, then hand the picked compaction to the job runner. A single
// worker per shard admits one job at a time; the job itself may fan
// out into sub-compactions with extra pool tokens.
func (db *DB) compactWorker() {
	db.mu.Lock()
	for {
		var c *compaction
		for !db.closed {
			// Idle while a background error is latched: no version
			// edit can be committed, so compaction work is wasted.
			// Also idle while another compaction holds the flag (a
			// manual CompactRange or a repair run releases db.mu
			// mid-compaction): picking from the still-current version
			// would select the same inputs and double-delete them at
			// install ("delete of absent file").
			if db.compactReadyLocked() {
				if c = db.pickCompactionLocked(); c != nil {
					break
				}
				// The tree no longer wants a compaction: a soft-error
				// note from a failed attempt is stale — there is
				// nothing left to retry.
				db.clearSoftErrorLocked(opCompaction)
			}
			db.bgCond.Wait()
		}
		if db.closed {
			break
		}
		held := bgHold{db: db}
		c, backoff := db.acquireForCompactionLocked(c, &held)
		var err error
		if c != nil {
			db.compacting = true
			db.mu.Unlock()
			err = db.executePickedCompaction(c, &held)
			if err != nil {
				// A checksum failure in a live input is not retryable
				// in place — the file is damaged. Route it to the
				// quarantine/repair path (latches the corruption error)
				// before the generic soft-error note below.
				db.maybeReportCorruption(err)
			}
			db.mu.Lock()
			db.compacting = false
			if err != nil {
				if db.bgErr == nil {
					// Inputs are still live and the pick retries: a soft
					// error — except disk-full, which classifies hard so
					// the recovery worker's wait-for-space path owns it
					// (see classifySeverity). (Manifest failures latch
					// inside commitEdit; the bgErr guard avoids
					// double-classifying them.)
					db.setBackgroundErrorLocked(opCompaction, err)
				}
				backoff = true
			} else {
				db.clearSoftErrorLocked(opCompaction)
			}
			// Also wakes anyone quiescing on db.compacting (recovery).
			db.bgCond.Broadcast()
		}
		db.mu.Unlock()
		// Everything goes back before the backoff or the sweep, so a
		// sleeping worker can't starve other shards' jobs.
		held.release()
		switch {
		case backoff:
			// Timed backoff; see flushWorker for the livelock note.
			db.clk.Sleep(flushRetryBackoff)
		case c != nil:
			// Rate feedback for Algorithm 1: compaction that leaves
			// L0 above the slowdown line is "behind" (Prev ≤ Esti).
			if db.stallActive() {
				db.mu.Lock()
				behind := db.vs.Current().NumFiles(0) >= db.opts.L0SlowdownTrigger
				db.mu.Unlock()
				db.controller.AdjustRate(behind)
			}
			db.deleteObsoleteFiles()
		}
		db.mu.Lock()
	}
	db.mu.Unlock()
}

// compactReadyLocked reports whether the background compactor may run
// a job. Callers hold db.mu.
func (db *DB) compactReadyLocked() bool {
	return !db.closed && db.bgErr == nil && !db.compacting
}

// acquireForCompactionLocked takes what a background compaction holds
// while it runs, in this order: a token of the shared pool first — the
// pick proves work exists and prices the priority, but it can go stale
// while parked, so it is dropped and made again once the token is held
// — then headroom for the projected output (bounded by the input
// bytes; obsolete inputs are only freed after install). Over budget
// the job defers, never fails: compaction_deferred is emitted and
// backoff asks the worker to sleep before the next pick. A trivial
// move writes no bytes and skips the reservation. db.mu is dropped
// around both steps, so the world is re-checked after each. It returns
// the compaction to run, or nil when there is none; what was taken so
// far is in held either way. Called with db.mu held, which is held on
// return.
func (db *DB) acquireForCompactionLocked(c *compaction, held *bgHold) (_ *compaction, backoff bool) {
	prio := db.compactPriorityLocked(c.score)
	db.mu.Unlock()
	held.acquireToken(prio)
	db.mu.Lock()
	c.base.Unref()
	if !db.compactReadyLocked() {
		return nil, false
	}
	if c = db.pickCompactionLocked(); c == nil {
		return nil, false
	}
	if db.space == nil || c.trivialMove {
		return c, false
	}
	var projected int64
	for _, f := range c.inputs {
		projected += f.Size
	}
	for _, f := range c.overlaps {
		projected += f.Size
	}
	// TryReserve runs without db.mu: a ladder change notifies back
	// into it.
	db.mu.Unlock()
	ok := db.space.TryReserve(projected)
	if ok {
		held.space = projected
	} else {
		db.metrics.SpaceDeferrals.Add(1)
		db.emitCompactionDeferred(c, projected)
	}
	db.mu.Lock()
	if ready := db.compactReadyLocked(); !ok || !ready {
		c.base.Unref()
		return nil, !ok && ready
	}
	return c, false
}

// executePickedCompaction runs a picked compaction on the caller's
// goroutine — events, timing, the job itself, success metrics, cursor
// advance, and the base unref. The caller must have set db.compacting,
// must not hold db.mu, and releases held, which gains the job's extra
// lane tokens. Shared by the background worker and compactNowLocked.
func (db *DB) executePickedCompaction(c *compaction, held *bgHold) error {
	var inputBytes, upperBytes int64
	for _, f := range c.inputs {
		upperBytes += f.Size
	}
	inputBytes = upperBytes
	for _, f := range c.overlaps {
		inputBytes += f.Size
	}
	db.emitCompactionBegin(c, inputBytes)
	compStart := db.clk.Now()

	stats, err := db.runCompactionJob(c, held)
	compDur := db.clk.Now().Sub(compStart)
	db.emitCompactionEnd(c, stats, compDur, err)
	c.base.Unref()

	if err == nil {
		db.metrics.CompactionLatency.Record(compDur)
		db.metrics.Levels[c.outputLevel].recordCompaction(
			upperBytes, stats.read, stats.written, compDur)
		db.mu.Lock()
		db.picker.noteCompacted(c)
		db.mu.Unlock()
	}
	return err
}

// compactNowLocked runs c on the caller's goroutine, outside the
// background worker's scheduling: manual CompactRange and the repair
// path. It takes the compacting flag for the duration, so the worker
// and other callers stay out; the caller has made sure it is free.
// Called with db.mu held; returns with it released.
func (db *DB) compactNowLocked(c *compaction) error {
	db.compacting = true
	db.mu.Unlock()

	held := bgHold{db: db}
	err := db.executePickedCompaction(c, &held)
	held.release()

	db.mu.Lock()
	db.compacting = false
	db.bgCond.Broadcast()
	db.mu.Unlock()
	if err == nil {
		db.deleteObsoleteFiles()
	}
	return err
}

// isBaseLevel reports whether no level deeper than the compaction's
// output overlaps userKey, so a tombstone can be dropped.
func (db *DB) isBaseLevel(c *compaction, userKey []byte) bool {
	for l := c.outputLevel + 1; l < manifest.NumLevels; l++ {
		for _, f := range c.base.Files[l] {
			if f.ContainsUserKey(userKey) {
				return false
			}
		}
	}
	return true
}
