package engine

import (
	"fmt"
	"math/bits"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/memtable"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

// The write path implements RocksDB's single write queue with batch
// groups, and the paper's Algorithm 2 (PIPELINED WRITE PROCESS): the
// writer at the head of the queue becomes the group leader, performs
// the combined WAL append for the whole group, then — in pipelined
// mode — promotes every group member to "memtable writer" so the
// memtable inserts proceed concurrently (the skiplist insert is CAS
// based) while the next group's leader is already writing the WAL.
//
// This queue is where the paper's Finding #3 lives: on a fast device
// reads complete quickly, write arrival pressure rises, and writers
// accumulate waiting for the leader's flush — the waiting-thread gauge
// (Figure 16) and the 32-thread write tail latency (Figure 15) are
// measured here.

// writer is one queued Apply call. flush marks a memtable-rotation
// request travelling through the queue instead of a batch; memWriter,
// set by a pipelined group's leader, hands the writer its own memtable
// insert.
type writer struct {
	batch     *batch.Batch
	sync      bool
	flush     bool
	memWriter bool
	err       error
	cv        clock.Cond
	group     *commitGroup
	perf      *PerfContext // nil unless stage timing is on for this op
}

// commitGroup is a leader-collected set of writers committed as one
// WAL record. pending counts the members still inserting into mem (the
// leader alone stands for the group unless it is pipelined); at zero
// the group is done and may be published. Both fields are under db.mu.
type commitGroup struct {
	members []*writer
	mem     *memtable.Memtable
	lastSeq uint64
	pending int
	err     error
}

// Put inserts a key/value pair.
func (db *DB) Put(key, value []byte) error {
	var b batch.Batch
	b.Put(key, value)
	return db.Apply(&b, db.opts.SyncWAL)
}

// Delete removes a key.
func (db *DB) Delete(key []byte) error {
	var b batch.Batch
	b.Delete(key)
	return db.Apply(&b, db.opts.SyncWAL)
}

// Apply commits a batch atomically. syncWAL requests a WAL sync before
// acknowledging.
func (db *DB) Apply(b *batch.Batch, syncWAL bool) error {
	return db.ApplyWithPerf(b, syncWAL, nil)
}

// ApplyWithPerf is Apply with a per-operation stage breakdown
// accumulated into pc. A nil pc collects nothing unless
// Options.CollectPerf is set, in which case the engine times the
// operation internally; either way the per-op deltas feed the Metrics
// Stage* histograms. Group followers attribute the leader's WAL work
// done on their behalf to WriteQueueWait.
func (db *DB) ApplyWithPerf(b *batch.Batch, syncWAL bool, pc *PerfContext) error {
	if b.Empty() {
		return nil
	}
	var before PerfContext
	if pc == nil {
		if db.opts.CollectPerf || db.opts.SlowOpThreshold > 0 {
			pc = &PerfContext{}
		}
	} else {
		before = *pc
	}
	start := db.clk.Now()

	// Algorithm 1 throttling: each writer pays its injected delay
	// before joining the queue.
	if d := db.controller.Delay(b.Size()); d > 0 {
		db.metrics.StallDelayTotal.Add(int64(d))
		if pc != nil {
			pc.ThrottleDelay += d
		}
	}

	w := &writer{batch: b, sync: syncWAL, perf: pc}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.bgErr != nil {
		// Latched background error: fail fast instead of queueing a
		// write whose durability the engine can no longer promise.
		err := db.bgErr
		db.mu.Unlock()
		return err
	}
	w.cv = db.clk.NewCond(db.mu)
	db.writers = append(db.writers, w)
	db.metrics.WaitingWriters.Add(1)
	var qStart time.Time
	if pc != nil {
		qStart = db.clk.Now()
	}
	for db.queuedLocked(w) {
		w.cv.Wait()
	}
	if pc != nil {
		pc.WriteQueueWait += db.clk.Now().Sub(qStart)
	}
	db.metrics.WaitingWriters.Add(-1)

	switch {
	case w.memWriter:
		db.mu.Unlock()
		var t0 time.Time
		if pc != nil {
			t0 = db.clk.Now()
		}
		db.applyBatchToMem(w.group.mem, w.batch)
		if pc != nil {
			pc.MemtableInsert += db.clk.Now().Sub(t0)
		}
		db.mu.Lock()
		db.memberDoneLocked(w.group)
	case w.group == nil:
		// Head of queue: become leader.
		db.leaderCommit(w)
	}
	// Read-your-writes: return only once the group's sequence numbers
	// are visible — a group ahead of this one may still be inserting
	// (RocksDB's pipelined write waits the same way) — or with its
	// error. advanceVisibleLocked signals w.cv when it publishes; the
	// wait is on other writers, so it counts as queueing.
	if g := w.group; g != nil {
		if !db.publishedLocked(g) {
			t0 := db.clk.Now()
			for !db.publishedLocked(g) {
				w.cv.Wait()
			}
			if pc != nil {
				pc.WriteQueueWait += db.clk.Now().Sub(t0)
			}
		}
		w.err = g.err
	}
	db.mu.Unlock()

	lat := db.clk.Now().Sub(start)
	db.metrics.WriteLatency.Record(lat)
	if db.opts.AdaptiveL0 {
		db.windowWrites.Add(int64(b.Count()))
	}
	if pc != nil {
		d := pc.diff(&before)
		db.metrics.recordWritePerf(&d)
		if t := db.opts.SlowOpThreshold; t > 0 && lat >= t {
			db.emitSlowOp("write", lat, int(b.Count()), &d)
		}
	}
	return w.err
}

// Flush rotates the current memtable (if non-empty) and blocks until
// every immutable memtable has been written to Level 0. Like RocksDB's
// manual flush, the rotation itself rides the write queue so it cannot
// race concurrent commits.
func (db *DB) Flush() error {
	w := &writer{flush: true}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.bgErr != nil {
		err := db.bgErr
		db.mu.Unlock()
		return err
	}
	w.cv = db.clk.NewCond(db.mu)
	db.writers = append(db.writers, w)
	for db.writers[0] != w {
		w.cv.Wait()
	}
	// Head of queue: perform the rotation.
	if !db.mem.Empty() {
		w.err = db.rotateMemtableLocked("manual")
	}
	db.popGroupLocked([]*writer{w})
	// Wait for the flush worker to drain the immutables, and for a
	// flush in flight to end (flush_end emitted) even if it failed.
	for w.err == nil && !db.closed && (db.flushing || (db.bgErr == nil && len(db.imms) > 0)) {
		db.bgCond.Wait()
	}
	if w.err == nil && db.bgErr != nil {
		// The flush worker idles while a background error is latched;
		// the immutables will not drain.
		w.err = db.bgErr
	}
	db.mu.Unlock()
	return w.err
}

// queuedLocked reports whether w has nothing to do yet: queued behind
// another head, or collected into a group whose leader has neither
// handed it its memtable insert nor published the group. Callers hold
// db.mu.
func (db *DB) queuedLocked(w *writer) bool {
	if w.group == nil {
		return db.writers[0] != w
	}
	return !w.memWriter && !db.publishedLocked(w.group)
}

// leaderCommit runs the commit protocol for the group led by w. Called
// with db.mu held, which is held on return.
func (db *DB) leaderCommit(leader *writer) {
	pc := leader.perf
	var roomStart time.Time
	if pc != nil {
		roomStart = db.clk.Now()
	}
	if err := db.makeRoomForWrite(); err != nil {
		// Fail the entire queue head; no seqs were assigned.
		leader.err = err
		db.popGroupLocked([]*writer{leader})
		return
	}
	if pc != nil {
		pc.WriteStall += db.clk.Now().Sub(roomStart)
	}

	// Collect the batch group: a contiguous queue prefix. Flush
	// markers never join a group; they run the queue head alone.
	group := &commitGroup{mem: db.mem, pending: 1}
	var groupBytes int64
	syncNeeded := false
	for _, cand := range db.writers {
		if cand.flush {
			break
		}
		sz := int64(cand.batch.Size())
		if len(group.members) > 0 && groupBytes+sz > maxBatchGroupBytes {
			break
		}
		group.members = append(group.members, cand)
		groupBytes += sz
		if cand.sync {
			syncNeeded = true
		}
		cand.group = group
	}

	// Assign sequence numbers.
	seq := db.lastSeq
	for _, m := range group.members {
		m.batch.SetSequence(seq + 1)
		seq += uint64(m.batch.Count())
	}
	db.lastSeq = seq
	group.lastSeq = seq
	db.pendingGroups = append(db.pendingGroups, group)
	walNum := db.walNum
	db.mu.Unlock()

	// WAL append for the whole group — serialized because the group
	// still occupies the queue head. Matching RocksDB's default (and
	// the paper's setup), the append is buffered — it costs CPU time
	// via the cost model — and only syncs to the device when a
	// writer asked for it (Options.SyncWAL or Apply(sync=true)).
	var walErr error
	walOp := opWALAppend
	if !db.opts.DisableWAL {
		walStart := db.clk.Now()
		rep := db.combinedRepr(group)
		walErr = db.walWriter.AddRecord(rep)
		if walErr == nil && db.space != nil {
			// Charge the appended record to the live WAL (record framing
			// is a few bytes per block, ignored). Guarded so the hot path
			// pays nothing when space accounting is off.
			db.spaceGrow(manifest.WALName(walNum), int64(len(rep)))
		}
		if db.cost != nil {
			db.cost.ChargeWALAppend(db.clk, len(rep))
		}
		appendDone := db.clk.Now()
		if pc != nil {
			pc.WALAppend += appendDone.Sub(walStart)
		}
		walEnd := appendDone
		if walErr == nil && syncNeeded {
			walOp = opWALSync
			pending := db.walWriter.Pending()
			walErr = db.walWriter.Sync()
			walEnd = db.clk.Now()
			if pc != nil {
				pc.WALSync += walEnd.Sub(appendDone)
			}
			if walErr == nil {
				db.metrics.WALSyncBytes.Add(pending)
				db.metrics.WALSyncLatency.Record(walEnd.Sub(appendDone))
			}
			db.emitWALSync(walNum, pending, walEnd.Sub(appendDone), walErr)
		}
		db.metrics.WALLatency.Record(walEnd.Sub(walStart))
	}

	db.mu.Lock()
	// Release the queue head so the next leader's WAL write can
	// overlap with this group's memtable phase (Algorithm 2).
	db.popGroupLocked(group.members)

	// The batches this leader inserts: its own under pipelined writes,
	// where every member inserts its own concurrently, else all of them.
	mine := group.members
	switch {
	case walErr != nil:
		// Both failures poison the log for everyone after this group:
		// a failed append may leave a torn record that ends replay
		// early, and a failed sync means acknowledged-but-unsynced
		// data may already be lost. Latch so later writes fail fast
		// instead of appending after the damage.
		db.setBackgroundErrorLocked(walOp, walErr)
		group.err = walErr
		mine = nil
	case db.opts.PipelinedWrites:
		group.pending = len(group.members)
		for _, m := range group.members[1:] {
			m.memWriter = true
			m.cv.Signal()
		}
		mine = mine[:1]
	}
	db.mu.Unlock()
	var t0 time.Time
	if pc != nil {
		t0 = db.clk.Now()
	}
	for _, m := range mine {
		db.applyBatchToMem(group.mem, m.batch)
	}
	if pc != nil {
		pc.MemtableInsert += db.clk.Now().Sub(t0)
	}
	db.mu.Lock()
	db.memberDoneLocked(group)
}

// popGroupLocked removes the group's writers from the queue head and
// wakes the next head.
func (db *DB) popGroupLocked(members []*writer) {
	db.writers = db.writers[len(members):]
	if len(db.writers) > 0 {
		db.writers[0].cv.Signal()
	} else {
		db.bgCond.Broadcast() // Close may be waiting for drain
	}
}

// memberDoneLocked records that one member of group finished its
// share of the memtable inserts (a failed group's leader: none); the
// last one makes the group done and publishes. Callers hold db.mu.
func (db *DB) memberDoneLocked(group *commitGroup) {
	if group.pending--; group.pending == 0 {
		db.advanceVisibleLocked()
	}
}

// advanceVisibleLocked publishes the sequence numbers of every done
// group prefix, preserving commit order, and wakes each published
// group's writers. Callers hold db.mu.
func (db *DB) advanceVisibleLocked() {
	n := 0
	for ; n < len(db.pendingGroups) && db.pendingGroups[n].pending == 0; n++ {
		g := db.pendingGroups[n]
		db.visibleSeq.Store(g.lastSeq)
		for _, m := range g.members {
			m.cv.Signal()
		}
	}
	db.pendingGroups = db.pendingGroups[n:]
	if n > 0 && len(db.pendingGroups) == 0 {
		db.bgCond.Broadcast() // memtable switch / Close may be waiting
	}
}

// publishedLocked reports whether group's sequence numbers are visible.
// Groups publish in commit order and each has its own, so visibleSeq
// covering lastSeq means the group itself was published. Callers hold
// db.mu.
func (db *DB) publishedLocked(group *commitGroup) bool {
	return db.visibleSeq.Load() >= group.lastSeq
}

// combinedRepr builds the WAL payload for a group.
func (db *DB) combinedRepr(group *commitGroup) []byte {
	if len(group.members) == 1 {
		return group.members[0].batch.Repr()
	}
	var combined batch.Batch
	combined.SetSequence(group.members[0].batch.Sequence())
	for _, m := range group.members {
		combined.Append(m.batch)
	}
	return combined.Repr()
}

// applyBatchToMem inserts a batch into mem, charging modeled CPU time.
func (db *DB) applyBatchToMem(mem *memtable.Memtable, b *batch.Batch) {
	seq := b.Sequence()
	totalCmps := 0
	_ = b.Iterate(func(kind keys.Kind, key, value []byte) error {
		mem.Add(seq, kind, key, value)
		seq++
		// Approximate skiplist insert comparisons: ~2·log2(N) — the
		// textbook expectation for a 1-in-4 tower. Insert's own count
		// is 1.7–1.8·log2(N), 20 at 4 000 entries and 29 at 65 536
		// against the 24 and 34 charged here (EXPERIMENTS.md,
		// "Cost-model calibration"); the charge is left as it is.
		totalCmps += 2 * bits.Len64(uint64(mem.Count()))
		return nil
	})
	if db.cost != nil {
		db.cost.ChargeMemInsert(db.clk, totalCmps)
	}
}

// makeRoomForWrite ensures the mutable memtable can accept the next
// group: it blocks on stop conditions, switches full memtables, and
// rotates the WAL. Called with db.mu held by the group leader; the
// lock may be dropped and retaken, and is held on return.
func (db *DB) makeRoomForWrite() error {
	for {
		switch {
		case db.closed:
			return ErrClosed

		case db.bgErr != nil:
			// Fail instead of waiting on background work (flush and
			// compaction idle while the error is latched).
			return db.bgErr

		case db.stallState == throttle.StateStopped:
			// L0 reached the stop threshold: block until compaction
			// clears it (the near-stop situation of case study A).
			db.waitStalledLocked()

		case db.mem.ApproximateSize() < db.memBudget:
			return nil

		case len(db.imms) >= maxImmutables:
			// All write buffers full and flush hasn't caught up.
			db.bgCond.Broadcast()
			db.waitStalledLocked()

		default:
			if err := db.rotateMemtableLocked("memtable-full"); err != nil {
				return err
			}
		}
	}
}

// rotateMemtableLocked switches the mutable memtable to immutable and
// opens a fresh WAL. reason names the trigger ("memtable-full",
// "manual") and travels with the immutable to the flush events. Called
// with db.mu held by the queue head; the lock is dropped around I/O
// and held on return. On failure the old WAL stays intact and open, so
// writes can proceed and the rotation can be retried.
func (db *DB) rotateMemtableLocked(reason string) error {
	// Wait out in-flight memtable writers and a full immutable queue.
	for len(db.pendingGroups) > 0 {
		db.bgCond.Wait()
	}
	for len(db.imms) >= maxImmutables {
		if db.bgErr != nil {
			// The flush worker idles while a background error is
			// latched; the immutable queue will never drain.
			return db.bgErr
		}
		db.bgCond.Broadcast() // make sure the flush worker is awake
		db.bgCond.Wait()
		if db.closed {
			return ErrClosed
		}
	}
	var newNum uint64
	if !db.opts.DisableWAL {
		newNum = db.vs.AllocFileNum()
	}
	oldWALFile := db.walFile
	oldWAL := db.walWriter
	oldWALNum := db.walNum
	db.mu.Unlock()

	var newFile vfs.File
	var err error
	if !db.opts.DisableWAL {
		// Create the replacement BEFORE touching the old log: a
		// failed create must leave the previous WAL usable.
		newFile, err = db.walFS.Create(manifest.WALName(newNum))
	}
	var serr error
	if err == nil && oldWAL != nil {
		// Make the rotated memtable's log durable.
		pending := oldWAL.Pending()
		t0 := db.clk.Now()
		serr = oldWAL.Sync()
		syncDur := db.clk.Now().Sub(t0)
		if serr == nil {
			db.metrics.WALSyncBytes.Add(pending)
			db.metrics.WALSyncLatency.Record(syncDur)
		}
		db.emitWALSync(oldWALNum, pending, syncDur, serr)
		_ = oldWALFile.Close()
	}
	if serr != nil && newFile != nil {
		// The rotation is aborted; release the unused replacement.
		_ = newFile.Close()
	}

	db.mu.Lock()
	if err != nil {
		// Old WAL intact: a soft error — writes keep flowing into the
		// current memtable and the next rotation attempt retries the
		// create — unless the disk is full, which latches (hard) and
		// hands the rotation to wait-for-space recovery.
		db.setBackgroundErrorLocked(opWALRotateCreate, err)
		return fmt.Errorf("engine: rotate wal: %w", err)
	}
	db.clearSoftErrorLocked(opWALRotateCreate)
	if serr != nil {
		// The old log's unsynced tail — already acknowledged to
		// writers — may not be durable. Unlike a failed create (a
		// transient, retriable condition with the old WAL intact),
		// this breaks the durability contract: latch it.
		db.setBackgroundErrorLocked(opWALRotateSync, serr)
		return fmt.Errorf("engine: rotate wal: sync old log: %w", serr)
	}
	if !db.opts.DisableWAL {
		db.installWALLocked(newNum, newFile)
	}
	db.queueMemLocked(oldWALNum, reason)
	return nil
}

// installWALLocked makes f — WAL file num, just created — the log new
// writes append to. The caller owns the previous handle. Callers hold
// db.mu (or run at open, before any concurrency).
func (db *DB) installWALLocked(num uint64, f vfs.File) {
	db.walFile, db.walWriter, db.walNum = f, wal.NewWriter(f), num
}

// queueMemLocked hands the mutable memtable to the flush path: it joins
// the immutable queue — covered by WAL walNum, to be flushed for
// reason — and a fresh memtable takes its place. Callers hold db.mu.
func (db *DB) queueMemLocked(walNum uint64, reason string) {
	db.imms = append(db.imms, flushedMem{mem: db.mem, walNum: walNum, maxSeq: db.lastSeq, reason: reason})
	db.mem = memtable.New(db.memBudget)
	db.installSuperVersionLocked("rotation")
	db.bgCond.Broadcast() // wake the flush worker
}

// waitStalledLocked blocks the leader on bgCond while recording stop
// stall time.
func (db *DB) waitStalledLocked() {
	t0 := db.clk.Now()
	db.metrics.StallStops.Add(1)
	db.bgCond.Wait()
	db.metrics.StallStopTotal.Add(int64(db.clk.Now().Sub(t0)))
}
