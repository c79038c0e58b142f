package shardeddb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
)

// Two-phase commit for cross-shard atomic batches, with presumed
// abort. An LSM shard cannot roll an applied batch back, so the data
// is NOT applied until the outcome is decided:
//
//	Phase 1 (prepare):  every participant durably logs a prepare
//	                    record — a reserved-keyspace Put whose value
//	                    is the shard's sub-batch payload — with
//	                    sync=true, in parallel.
//	Commit point:       a commit record — the reserved key commitPrefix
//	                    + batch ID — Put with sync=true in the batch's
//	                    lowest-numbered participant, whose own WAL and
//	                    LSM make it durable: there is no other log.
//	                    Before it is durable the batch is presumed
//	                    aborted.
//	Phase 2 (apply):    each participant applies its real sub-batch
//	                    plus a delete of its prepare record, as one
//	                    engine batch, with the caller's sync flag.
//
// Once every prepare is durable the handle never aborts the batch. If
// the commit record or a phase-2 apply fails, the remaining steps stay
// queued on the handle and the prepares stay; Apply returns the error,
// and before any later write routed to a participant is applied the
// handle runs the queued steps (that write fails if they fail again).
// Close leaves the queue to recovery at open, which scans every shard's
// reserved keyspace once: the committed set is the union of the commit
// records found, prepares with a committed ID roll forward on their
// shard and the rest abort, and then every commit record is deleted,
// synced. No record outlives an open, so the batch-ID counter simply
// restarts at zero with each open.
//
// Roll-forward cannot clobber newer data — the fence: a batch's phase 2
// on shard s, which deletes its prepare there, precedes in s's WAL
// every user write to s that began after the batch's Apply returned
// (the queue above holds such writes back until s has no step left),
// and a shard's WAL survives a crash as a prefix. So a surviving
// prepare means no write issued after its batch returned survived on
// that shard. A write concurrent with the batch may have; roll-forward
// orders the batch after it, as phase 2 would have.
//
// Commit records of finished batches are garbage. Every txnGCEvery
// finished batches, the writer that finished the last one forces every
// shard's WAL down (a synced Put of syncMarkerKey), making their
// phase-2 prepare deletions durable, and then deletes the records, one
// batch per coordinator shard. Without that sync a dropped record's
// prepare could resurface after a crash and be wrongly aborted. A
// failed pass leaves its records to the next pass or the next open.
//
// A store written before the commit record moved into the shards keeps
// it in a coordinator log under meta/. Open removes those files, or,
// if a prepare survives whose commit may be recorded only there,
// refuses the store rather than abort a committed batch.

// txnGCEvery is how many finished batches' commit records accumulate
// before a GC pass deletes them.
const txnGCEvery = 4096

// The reserved keyspace: 0x00-leading keys are rejected from the public
// API. A prepare record's key is prepPrefix + 8-byte big-endian batch
// ID, a commit record's commitPrefix + ID; both begin with txnPrefix, so
// one scan finds both. syncMarkerKey is the reserved key whose synced
// Put forces a shard's WAL down before a GC pass.
var (
	txnPrefix     = []byte{0, 't', 'x', 'n'}
	prepPrefix    = []byte{0, 't', 'x', 'n', 0}
	commitPrefix  = []byte{0, 't', 'x', 'n', 1}
	syncMarkerKey = []byte{0, 's', 'y', 'n', 'c'}
)

func txnKey(prefix []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(slices.Clip(prefix), id)
}

// isInternalKey reports whether key lives in the reserved keyspace.
func isInternalKey(key []byte) bool { return len(key) > 0 && key[0] == 0 }

// txn is a cross-shard batch whose prepares are all durable.
type txn struct {
	id     uint64
	shards []int // participants, ascending; shards[0] holds the commit record
	sync   bool  // the caller's phase-2 sync flag
	// What is still to do, touched only by the writer running the steps:
	// the commit record, and the phase-2 batches by shard.
	commit bool
	parts  map[int]*batch.Batch
	// Guarded by txnMu: queued means a run failed and the steps wait for
	// a write to a participant; running, that some writer runs them.
	queued, running bool
}

// blocks reports whether t still has a step on shard s: every
// participant until the commit record is durable, then the unfinished
// phase 2s. Called under txnMu; while a writer runs the steps they are
// its own, so every participant counts.
func (t *txn) blocks(s int) bool {
	if t.running || t.commit {
		return slices.Contains(t.shards, s)
	}
	return t.parts[s] != nil
}

// applyCross runs the two-phase protocol for a batch spanning parts.
func (db *DB) applyCross(parts map[int]*batch.Batch, syncWAL bool) error {
	shardIDs := slices.Sorted(maps.Keys(parts))
	if err := db.fence(shardIDs...); err != nil {
		return err
	}
	db.txnMu.Lock()
	db.txnID++
	t := &txn{id: db.txnID, shards: shardIDs, sync: syncWAL, commit: true, parts: parts, running: true}
	db.txnMu.Unlock()
	prepKey := txnKey(prepPrefix, t.id)

	// Phase 1: durable prepare records in every participant, in
	// parallel. The record's value is the sub-batch payload, so the
	// shard itself carries everything roll-forward needs.
	errs := make([]error, len(shardIDs))
	clock.Parallel(db.clk, "txn-prepare", len(shardIDs), func(i int) {
		var pb batch.Batch
		pb.Put(prepKey, parts[shardIDs[i]].Repr())
		errs[i] = db.shards[shardIDs[i]].Apply(&pb, true)
	})
	if i := firstErr(errs); i >= 0 {
		// Presumed abort: best-effort removal of the prepares that did
		// land; recovery aborts any that survive a crash.
		for j, s := range shardIDs {
			if errs[j] == nil {
				var ab batch.Batch
				ab.Delete(prepKey)
				_ = db.shards[s].Apply(&ab, false)
			}
		}
		db.txnAborts.Add(1)
		return fmt.Errorf("shardeddb: prepare on shard %d: %w", shardIDs[i], errs[i])
	}

	// Past the prepares the batch only goes forward. Each phase-2 batch
	// retires its prepare, so the two vanish or survive together.
	for _, sub := range parts {
		sub.Delete(prepKey)
	}
	db.txnMu.Lock()
	db.txnPending[t.id] = t
	db.txnMu.Unlock()
	return db.runSteps(t)
}

// fence runs the queued steps of every batch with a step left on one of
// shards, before a write to them is applied. A batch whose steps another
// writer is running is waited for.
func (db *DB) fence(shards ...int) error {
	if db.txnQueued.Load() == 0 {
		return nil
	}
	db.txnMu.Lock()
	for {
		var t *txn
		for _, p := range db.txnPending {
			if p.queued && slices.ContainsFunc(shards, p.blocks) {
				t = p
				break
			}
		}
		switch {
		case t == nil:
			db.txnMu.Unlock()
			return nil
		case t.running:
			db.txnCond.Wait()
			continue
		}
		t.running = true
		db.txnMu.Unlock()
		if err := db.runSteps(t); err != nil {
			return err
		}
		db.txnMu.Lock()
	}
}

// runSteps runs t's remaining steps and records the outcome: a finished
// batch leaves the pending set for the GC list, a failed one stays
// queued. The caller has set t.running.
func (db *DB) runSteps(t *txn) error {
	err := db.steps(t)
	var gc []*txn
	db.txnMu.Lock()
	t.running = false
	if err != nil {
		if !t.queued {
			t.queued = true
			db.txnQueued.Add(1)
		}
		db.txnP2Failures.Add(1)
	} else {
		if t.queued {
			db.txnQueued.Add(-1)
		}
		delete(db.txnPending, t.id)
		db.txnDone = append(db.txnDone, t)
		if db.txnSinceGC++; db.txnSinceGC >= txnGCEvery && !db.txnGCing {
			gc, db.txnDone, db.txnGCing, db.txnSinceGC = db.txnDone, nil, true, 0
		}
	}
	db.txnCond.Broadcast()
	db.txnMu.Unlock()
	if gc != nil {
		db.gc(gc)
	}
	return err
}

// steps writes t's commit record unless it is durable already, then
// applies every unfinished participant's phase 2, in parallel.
func (db *DB) steps(t *txn) error {
	if t.commit {
		var cb batch.Batch
		cb.Put(txnKey(commitPrefix, t.id), nil)
		if err := db.shards[t.shards[0]].Apply(&cb, true); err != nil {
			return fmt.Errorf("shardeddb: batch %#x: commit record on shard %d: %w", t.id, t.shards[0], err)
		}
		t.commit = false
		db.crossBatches.Add(1)
	}
	left := slices.Sorted(maps.Keys(t.parts))
	errs := make([]error, len(left))
	clock.Parallel(db.clk, "txn-apply", len(left), func(i int) {
		errs[i] = db.shards[left[i]].Apply(t.parts[left[i]], t.sync)
	})
	for i, err := range errs {
		if err == nil {
			delete(t.parts, left[i])
		}
	}
	if i := firstErr(errs); i >= 0 {
		return fmt.Errorf("shardeddb: committed batch %#x: apply on shard %d: %w", t.id, left[i], errs[i])
	}
	return nil
}

// gc deletes the commit records of finished batches (see the header).
func (db *DB) gc(done []*txn) {
	var keep []*txn
	for _, s := range db.shards {
		var sb batch.Batch
		sb.Put(syncMarkerKey, nil)
		if s.Apply(&sb, true) != nil {
			keep = done
			break
		}
	}
	if keep == nil {
		byShard := map[int][]*txn{}
		for _, t := range done {
			byShard[t.shards[0]] = append(byShard[t.shards[0]], t)
		}
		for s, ts := range byShard {
			var b batch.Batch
			for _, t := range ts {
				b.Delete(txnKey(commitPrefix, t.id))
			}
			if db.shards[s].Apply(&b, false) != nil {
				keep = append(keep, ts...)
			}
		}
	}
	db.txnMu.Lock()
	db.txnDone = append(db.txnDone, keep...)
	db.txnGCing = false
	db.txnMu.Unlock()
}

// recoverTxns resolves the records the last run left (see the header):
// committed batches roll forward, the rest abort, and then every commit
// record is deleted. Each step is synced.
func (db *DB) recoverTxns() error {
	type prepared struct {
		shard   int
		id      uint64
		payload []byte
	}
	var preps []prepared
	committed := map[uint64]bool{}
	commits := make([]batch.Batch, len(db.shards))
	for i, s := range db.shards {
		err := scanPrefix(s, txnPrefix, func(key, value []byte) {
			if len(key) != len(prepPrefix)+8 {
				return
			}
			id := binary.BigEndian.Uint64(key[len(prepPrefix):])
			switch {
			case bytes.HasPrefix(key, prepPrefix):
				preps = append(preps, prepared{i, id, slices.Clone(value)})
			case bytes.HasPrefix(key, commitPrefix):
				committed[id] = true
				commits[i].Delete(key)
			}
		})
		if err != nil {
			return fmt.Errorf("shardeddb: scan shard %d: %w", i, err)
		}
	}
	if err := db.dropCoordinatorLog(len(preps) > 0); err != nil {
		return err
	}
	for _, p := range preps {
		var fb batch.Batch
		outcome := &db.abortedAtOpen
		if committed[p.id] {
			sub, err := batch.FromRepr(p.payload)
			if err != nil {
				return fmt.Errorf("shardeddb: shard %d: decode prepared batch %#x: %w", p.shard, p.id, err)
			}
			fb.Append(sub)
			outcome = &db.rolledForward
		}
		fb.Delete(txnKey(prepPrefix, p.id))
		if err := db.shards[p.shard].Apply(&fb, true); err != nil {
			return fmt.Errorf("shardeddb: shard %d: resolve batch %#x: %w", p.shard, p.id, err)
		}
		outcome.Add(1)
	}
	for i := range commits {
		if commits[i].Empty() {
			continue
		}
		if err := db.shards[i].Apply(&commits[i], true); err != nil {
			return fmt.Errorf("shardeddb: shard %d: delete commit records: %w", i, err)
		}
	}
	return nil
}

// oldTxnCur is the coordinator log's pointer file in a store written
// before the commit record moved into the shards (see the header).
const oldTxnCur = "meta/TXNCUR"

// dropCoordinatorLog removes an old store's meta/ files, the pointer
// last so that a crash part-way repeats the check, or fails when a
// prepare survives (inDoubt): its commit may be recorded only there.
func (db *DB) dropCoordinatorLog(inDoubt bool) error {
	fs := db.opts.Engine.FS
	names, err := fs.List()
	if err != nil || !slices.Contains(names, oldTxnCur) {
		return err
	}
	if inDoubt {
		return fmt.Errorf("shardeddb: in-doubt cross-shard batches whose commits may be recorded only in %s; open and close the store once with the version that wrote it", oldTxnCur)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "meta/") && n != oldTxnCur {
			if err := fs.Remove(n); err != nil {
				return err
			}
		}
	}
	return fs.Remove(oldTxnCur)
}

// firstErr returns the index of the first non-nil error, -1 for none.
func firstErr(errs []error) int {
	return slices.IndexFunc(errs, func(err error) bool { return err != nil })
}

// scanPrefix calls fn for every live key of s that begins with prefix.
func scanPrefix(s *engine.DB, prefix []byte, fn func(key, value []byte)) error {
	it, err := s.NewIter()
	if err != nil {
		return err
	}
	defer it.Close()
	for it.SeekGE(prefix); it.Valid() && bytes.HasPrefix(it.Key(), prefix); it.Next() {
		fn(it.Key(), it.Value())
	}
	return it.Error()
}
