package engine

import (
	"time"

	"xpointdb/internal/manifest"
	"xpointdb/internal/memtable"
	"xpointdb/internal/throttle"
)

// flushWorker is the background process that turns immutable memtables
// into Level-0 SSTs (RocksDB's high-priority flush pool).
func (db *DB) flushWorker() {
	db.mu.Lock()
	for {
		// Idle while a background error is latched: retrying a flush
		// against a failed MANIFEST or WAL only multiplies damage.
		for !db.closed && !db.flushReadyLocked() {
			if len(db.imms) == 0 {
				// Nothing left to retry: a soft-error note from a
				// failed attempt is stale (error recovery may have
				// drained the queue itself while this worker idled).
				db.clearSoftErrorLocked(opFlush)
			}
			db.bgCond.Wait()
		}
		if db.closed {
			// Unflushed immutables remain covered by their WALs and
			// are recovered on the next open.
			break
		}
		held := bgHold{db: db}
		if !db.acquireForFlushLocked(&held) {
			// Closing, or the queue drained while parked.
			db.mu.Unlock()
			held.release()
			db.mu.Lock()
			continue
		}
		l0Files, err := db.flushImmLocked(db.imms[0], db.commitEdit)
		// Everything goes back before the backoff or the sweep: a
		// sleeping worker must not starve other shards' jobs.
		held.release()
		if err != nil {
			// The immutable stays queued; retry after a timed backoff.
			// (An untimed cond wait here can livelock with a write
			// leader stalled on the full immutable queue: each would
			// wait for the other's signal.)
			db.clk.Sleep(flushRetryBackoff)
		} else {
			// Algorithm 1 rate feedback: a completed flush grew L0;
			// if the tree is in a stall zone, compaction is behind.
			if db.stallActive() {
				db.controller.AdjustRate(l0Files >= db.opts.L0SlowdownTrigger)
			}
			db.deleteObsoleteFiles()
		}
		db.mu.Lock()
	}
	db.mu.Unlock()
}

// flushReadyLocked reports whether the flush worker has a job it may
// run. Callers hold db.mu.
func (db *DB) flushReadyLocked() bool {
	return !db.closed && len(db.imms) > 0 && db.bgErr == nil
}

// acquireForFlushLocked takes what a flush holds while it runs, in
// this order: headroom for the projected L0 output first — over budget
// the job defers, it does not fail, until reclamation or a budget
// raise makes room — then a token of the shared pool. db.mu is dropped
// while parked on either, so the world is re-checked after each: the
// queue may have been drained by error recovery, or the DB closed. A
// false return means there is nothing to run; what was taken so far is
// in held either way. Called with db.mu held, which is held on return.
func (db *DB) acquireForFlushLocked(held *bgHold) bool {
	if db.space != nil {
		projected := db.imms[0].mem.ApproximateSize()
		db.mu.Unlock()
		ok := db.reserveSpace(projected)
		db.mu.Lock()
		if !ok {
			return false // closing
		}
		held.space = projected
		if !db.flushReadyLocked() {
			return false
		}
	}
	prio := db.flushPriorityLocked()
	db.mu.Unlock()
	held.acquireToken(prio)
	db.mu.Lock()
	return db.flushReadyLocked()
}

// flushImmLocked is the flush job: it writes one immutable memtable as
// a Level-0 SST and installs it. It owns the file number, the version
// edit, the flush_begin/flush_end pair, the failed-output cleanup, the
// retirement of fm from the immutable queue and the flush accounting;
// the flush worker, the recovery drain and open-time WAL replay all
// run it. commit is its one varying input: the worker commits through
// commitEdit, the drain with the recovery bypass, and WAL replay —
// which runs before the first SuperVersion exists and flushes a
// memtable that was never queued — applies the edit to the version set
// directly. It returns the Level-0 file count after the attempt.
// Called with db.mu held; returns with it released.
func (db *DB) flushImmLocked(fm flushedMem, commit func(*manifest.Edit) error) (l0Files int, err error) {
	num := db.vs.AllocFileNum()
	queued := len(db.imms)
	db.flushing = true
	db.mu.Unlock()

	memBytes := fm.mem.ApproximateSize()
	db.emitFlushBegin(fm.reason, fm.walNum, memBytes, queued)
	start := db.clk.Now()

	meta, err := db.buildTable(num, fm.mem)
	if err == nil {
		// The new L0 file supersedes fm's WAL; logs strictly older
		// than the next surviving memtable's WAL can go.
		db.mu.Lock()
		logNum := db.walNum
		if len(db.imms) > 1 {
			logNum = db.imms[1].walNum
		}
		db.mu.Unlock()
		err = commit(&manifest.Edit{
			LogNum:  &logNum,
			LastSeq: &fm.maxSeq,
			Added:   []manifest.AddedFile{{Level: 0, Meta: meta}},
		})
	}

	db.mu.Lock()
	l0Files = db.vs.Current().NumFiles(0)
	if err != nil {
		if db.bgErr == nil {
			// The SST build failed but WAL and MANIFEST are fine.
			// Classification decides the cost: transient I/O is a soft
			// error — the immutable stays queued and the worker's retry
			// usually heals it — while disk-full latches hard so
			// writers fail fast and the recovery worker's
			// wait-for-space path owns reclamation (retrying an SST
			// build into a full disk can never succeed, and the stalled
			// write leader has nothing to fail on). (Manifest failures
			// latched inside commit; the bgErr guard avoids
			// double-classifying them, and makes this a no-op under the
			// latch a recovery drain runs with.)
			db.setBackgroundErrorLocked(opFlush, err)
		}
		db.mu.Unlock()
		db.emitFlushEnd(fm, num, 0, l0Files, db.clk.Now().Sub(start), err)
		db.removeUninstalledOutputs([]uint64{num})
		db.endFlush()
		return l0Files, err
	}
	db.clearSoftErrorLocked(opFlush)
	if len(db.imms) > 0 {
		// fm heads the queue — except at open, where WAL replay flushes
		// a memtable no reader could see yet.
		db.imms = db.imms[1:]
		db.installSuperVersionLocked("flush")
	}
	db.bgCond.Broadcast()
	db.mu.Unlock()
	dur := db.clk.Now().Sub(start)
	db.metrics.FlushLatency.Record(dur)
	db.metrics.Levels[0].recordCompaction(memBytes, 0, meta.Size, dur)
	db.emitFlushEnd(fm, num, meta.Size, l0Files, dur, nil)
	db.endFlush()
	return l0Files, nil
}

// endFlush marks the flush job over once its flush_end is emitted, so
// a Flush waiting on db.flushing returns only after the event exists,
// and wakes anyone quiescing on it (error recovery).
func (db *DB) endFlush() {
	db.mu.Lock()
	db.flushing = false
	db.bgCond.Broadcast()
	db.mu.Unlock()
}

// compactChargeBatch is how many merged entries of CPU cost are
// charged at a time during flush and compaction.
const compactChargeBatch = 128

// flushRetryBackoff paces background retries after flush or compaction
// failures (transient filesystem errors).
const flushRetryBackoff = 10 * time.Millisecond

// flushPriorityBias ranks every flush above every compaction in a
// shared background pool: an unflushed immutable queue stops that
// shard's writes outright, which is strictly worse than any amount of
// L0 accumulation.
const flushPriorityBias = 1 << 20

// flushPriorityLocked scores a pending flush for the shared pool:
// flushes always outrank compactions, and among flushes, deeper
// immutable queues and fuller L0s (closer to this shard's stop
// trigger) go first. Caller holds db.mu.
func (db *DB) flushPriorityLocked() float64 {
	l0 := db.vs.Current().NumFiles(0)
	return flushPriorityBias + float64(len(db.imms))*100 +
		float64(l0)/float64(db.opts.L0StopTrigger)*100
}

// compactPriorityLocked scores a pending compaction for the shared
// pool by stall risk: L0 pressure relative to this shard's slowdown
// trigger dominates — the pool drains the shard closest to stalling
// first — and the picked job's own score breaks ties between shards at
// equal L0 pressure (a deeply over-target level beats routine
// leveling). The score term stays ≪ one L0 file's worth of pressure,
// so it can order jobs but never outrank real stall risk. Caller holds
// db.mu.
func (db *DB) compactPriorityLocked(score float64) float64 {
	l0 := db.vs.Current().NumFiles(0)
	tie := score
	if tie > 4 {
		tie = 4
	}
	return float64(l0)/float64(db.opts.L0SlowdownTrigger)*100 + tie
}

// stallActive reports whether any throttling state is in force.
func (db *DB) stallActive() bool {
	s := db.controller.CurrentState()
	return s == throttle.StateDelayed || s == throttle.StateAggressive
}

// buildTable writes every entry of mem into SST file num, charging
// merge CPU as it goes so the flush occupies virtual time while it
// runs, not as a lump at the end. Called without db.mu.
func (db *DB) buildTable(num uint64, mem *memtable.Memtable) (*manifest.FileMeta, error) {
	w, err := db.newTableWriter(num)
	if err != nil {
		return nil, err
	}
	src := mem.NewIter()
	entries := 0
	for src.SeekToFirst(); src.Valid(); src.Next() {
		if err := w.add(src.Key(), src.Value()); err != nil {
			w.abort()
			return nil, err
		}
		entries++
		if db.cost != nil && entries%compactChargeBatch == 0 {
			db.cost.ChargeCompactEntries(db.clk, compactChargeBatch)
		}
	}
	if err := src.Error(); err != nil {
		w.abort()
		return nil, err
	}
	meta, err := w.finish()
	if err == nil && db.cost != nil {
		db.cost.ChargeCompactEntries(db.clk, entries%compactChargeBatch)
	}
	return meta, err
}

// commitEdit durably applies a version edit: manifest I/O outside
// db.mu, serialized by manifestBusy. Called without db.mu.
func (db *DB) commitEdit(edit *manifest.Edit) error {
	return db.commitEditWith(edit, false)
}

// commitEditWith is commitEdit with a recovery bypass: the recovery
// worker must commit edits (re-flushed memtables) while the latch is
// still set, so recovery=true skips the fail-fast check and, on append
// failure, re-latches under the manifest classification instead — the
// torn tail has moved to the MANIFEST, so the next recovery attempt
// must roll it before anything else.
func (db *DB) commitEditWith(edit *manifest.Edit, recovery bool) error {
	db.mu.Lock()
	for db.manifestBusy && (recovery || db.bgErr == nil) {
		db.bgCond.Wait()
	}
	if !recovery && db.bgErr != nil {
		err := db.bgErr
		db.mu.Unlock()
		return err
	}
	db.manifestBusy = true
	payload := db.vs.Prepare(edit)
	db.mu.Unlock()

	err := db.vs.Append(payload)
	// Charge the appended edit to the live MANIFEST (stable while
	// manifestBusy is held). A failed append counts too: its bytes are
	// in the file until recovery rolls it away.
	db.spaceTrack(manifest.ManifestName(db.vs.ManifestNum()), db.vs.ManifestSize())

	db.mu.Lock()
	db.manifestBusy = false
	if err != nil {
		// A failed MANIFEST append (write or sync) may leave a torn
		// edit at the log's tail; appending more edits after it would
		// put them beyond a corruption that ends recovery replay.
		// Latch: the version state on disk is frozen until recovered.
		if recovery {
			db.relatchLocked(opManifestAppend, err)
		} else {
			db.setBackgroundErrorLocked(opManifestAppend, err)
		}
	} else {
		if err = db.vs.Install(edit); err != nil {
			// In-memory apply failed after the durable append — the
			// disk and memory states have diverged.
			db.setBackgroundErrorLocked(opManifestInstall, err)
		} else {
			db.installSuperVersionLocked("version-edit")
		}
	}
	db.updateStallStateLocked()
	db.bgCond.Broadcast()
	db.mu.Unlock()
	return err
}
