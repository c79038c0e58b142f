package shardeddb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

// Two-phase commit for cross-shard atomic batches, with presumed
// abort. An LSM shard cannot roll an applied batch back, so the data
// is NOT applied until the outcome is decided:
//
//	Phase 1 (prepare):  every participant durably logs a prepare
//	                    record — a reserved-keyspace Put whose value
//	                    is the shard's sub-batch payload — with
//	                    sync=true, in parallel.
//	Commit point:       one commit record (the batch ID) appended and
//	                    synced to the coordinator log in the meta
//	                    namespace. Before this record is durable the
//	                    transaction is presumed aborted.
//	Phase 2 (apply):    each participant applies its real sub-batch
//	                    plus a delete of its prepare record, as one
//	                    engine batch, with the caller's sync flag.
//
// Recovery at open reads the committed-ID set from the coordinator
// log (a torn tail reads as "uncommitted", which is safe: the caller
// was only acknowledged after the commit record synced), scans every
// shard for surviving prepare records, rolls the committed ones
// forward and aborts the rest. Roll-forward cannot clobber newer
// durable data: the prepare's sync made that shard's whole WAL prefix
// durable, so a surviving prepare means nothing later in that shard
// survived either.
//
// The coordinator log never shrinks in place; it rotates through a
// CURRENT-style pointer file (txnCurName) so a torn new log can never
// orphan carried-forward IDs — the old log stays authoritative until
// the pointer renames over. Before a rotation drops confirmed IDs it
// forces every shard's WAL down (a reserved-key Put with sync=true),
// making the phase-2 prepare deletions durable; otherwise a dropped
// ID's prepare could resurface after a crash and be wrongly aborted.

const (
	// txnCurName is the pointer file naming the live coordinator log.
	txnCurName = "TXNCUR"
	// txnRecEpoch and txnRecCommit are the log record kinds.
	txnRecEpoch  = 1
	txnRecCommit = 2
	// txnRotateEvery bounds commits per log before rotation.
	txnRotateEvery = 4096
)

// prepPrefix is the reserved key prefix for prepare records; the full
// key is prepPrefix + 8-byte big-endian batch ID. 0x00-leading keys
// are rejected from the public API, so this keyspace is private.
var prepPrefix = []byte{0, 't', 'x', 'n', 0}

// syncMarkerKey is the reserved key whose synced Put forces a shard's
// WAL down during coordinator-log rotation.
var syncMarkerKey = []byte{0, 's', 'y', 'n', 'c'}

func prepKeyFor(id uint64) []byte {
	k := make([]byte, len(prepPrefix)+8)
	copy(k, prepPrefix)
	binary.BigEndian.PutUint64(k[len(prepPrefix):], id)
	return k
}

func prepKeyID(key []byte) (uint64, bool) {
	if len(key) != len(prepPrefix)+8 || string(key[:len(prepPrefix)]) != string(prepPrefix) {
		return 0, false
	}
	return binary.BigEndian.Uint64(key[len(prepPrefix):]), true
}

// isInternalKey reports whether key lives in the reserved keyspace.
func isInternalKey(key []byte) bool { return len(key) > 0 && key[0] == 0 }

// applyCross runs the two-phase protocol for a batch spanning parts.
func (db *DB) applyCross(parts map[int]*batch.Batch, syncWAL bool) error {
	db.txnMu.Lock()
	db.txnCounter++
	id := uint64(db.txnEpoch)<<32 | uint64(db.txnCounter)
	db.txnMu.Unlock()
	prepKey := prepKeyFor(id)

	// Phase 1: durable prepare records in every participant, in
	// parallel. The record's value is the sub-batch payload, so the
	// shard itself carries everything roll-forward needs.
	clk := db.opts.Engine.Clock
	shardIDs := slices.Sorted(maps.Keys(parts))
	prepErrs := make([]error, len(shardIDs))
	clock.Parallel(clk, "txn-prepare", len(shardIDs), func(i int) {
		var pb batch.Batch
		pb.Put(prepKey, parts[shardIDs[i]].Repr())
		prepErrs[i] = db.shards[shardIDs[i]].Apply(&pb, true)
	})
	for i, e := range prepErrs {
		if e != nil {
			// Presumed abort: best-effort removal of the prepares that
			// did land; recovery aborts any that survive a crash.
			db.abortPrepares(shardIDs, prepErrs, prepKey)
			db.txnAborts.Add(1)
			return fmt.Errorf("shardeddb: prepare on shard %d: %w", shardIDs[i], e)
		}
	}

	// Commit point: the ID becomes durable in the coordinator log.
	db.txnMu.Lock()
	db.txnPending[id] = true
	err := db.appendCommitLocked(id)
	if err != nil {
		delete(db.txnPending, id)
		db.txnMu.Unlock()
		db.abortPrepares(shardIDs, prepErrs, prepKey)
		db.txnAborts.Add(1)
		return fmt.Errorf("shardeddb: commit record: %w", err)
	}
	db.txnDirty++
	if db.txnDirty >= txnRotateEvery {
		db.rotateTxnLogLocked()
	}
	db.txnMu.Unlock()
	db.crossBatches.Add(1)

	// Phase 2: apply the data and retire the prepare record, one
	// engine batch per shard — they vanish or survive together.
	applyErrs := make([]error, len(shardIDs))
	clock.Parallel(clk, "txn-apply", len(shardIDs), func(i int) {
		sub := parts[shardIDs[i]]
		sub.Delete(prepKey)
		applyErrs[i] = db.shards[shardIDs[i]].Apply(sub, syncWAL)
	})
	for i, e := range applyErrs {
		if e != nil {
			// The transaction IS committed — its record is durable and
			// at least one shard may have applied. The ID stays pending
			// (never dropped by rotation) and the surviving prepares
			// roll forward at the next open. Callers see the error; the
			// shard's background-error machinery owns the rest.
			db.txnP2Failures.Add(1)
			return fmt.Errorf("shardeddb: committed batch %#x: apply on shard %d: %w",
				id, shardIDs[i], e)
		}
	}
	db.txnMu.Lock()
	delete(db.txnPending, id)
	db.txnMu.Unlock()
	return nil
}

// abortPrepares deletes the prepare record from every shard whose
// prepare succeeded. Best-effort: a shard that cannot delete keeps the
// record until open-time resolution aborts it (its ID is not in the
// coordinator log).
func (db *DB) abortPrepares(shardIDs []int, prepErrs []error, prepKey []byte) {
	for i, s := range shardIDs {
		if prepErrs[i] != nil {
			continue
		}
		var ab batch.Batch
		ab.Delete(prepKey)
		_ = db.shards[s].Apply(&ab, false)
	}
}

// appendCommitLocked writes and syncs one commit record. Caller holds
// txnMu.
func (db *DB) appendCommitLocked(id uint64) error {
	rec := make([]byte, 9)
	rec[0] = txnRecCommit
	binary.BigEndian.PutUint64(rec[1:], id)
	if err := db.txnLog.AddRecord(rec); err != nil {
		return err
	}
	if err := db.txnLog.Sync(); err != nil {
		return err
	}
	if db.shared.Space != nil {
		// Charge the appended record to the shared space budget (record
		// framing is a few bytes, ignored — rotation re-measures).
		db.shared.Space.GrowFile(metaSpaceKey(db.txnName), int64(len(rec)))
	}
	return nil
}

// metaSpaceKey namespaces coordinator files in the shared space
// manager ("meta/" cannot collide with the shards' "s<i>/" keys).
func metaSpaceKey(name string) string { return "meta/" + name }

// ---------------------------------------------------------------------
// Coordinator log lifecycle

func txnLogName(epoch uint32, gen int) string {
	return fmt.Sprintf("TXN-%06d-%03d", epoch, gen)
}

// readAll reads a whole file from fs.
func readAll(fs vfs.FS, name string) ([]byte, error) {
	size, err := fs.Size(name)
	if err != nil {
		return nil, err
	}
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// loadTxnLog reads the live coordinator log (via the pointer file) and
// returns the committed-ID set and the highest epoch seen. A missing
// pointer means a fresh store. Torn tails end the scan cleanly: any
// ID not fully synced was never acknowledged.
func (db *DB) loadTxnLog() (committed map[uint64]bool, maxEpoch uint32, err error) {
	committed = make(map[uint64]bool)
	cur, err := readAll(db.metaFS, txnCurName)
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return committed, 0, nil
		}
		return nil, 0, fmt.Errorf("shardeddb: read %s: %w", txnCurName, err)
	}
	name := string(cur)
	f, err := db.metaFS.Open(name)
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			// Pointer to a missing log: treat as empty (the rename
			// landed but the store crashed before any commit).
			return committed, 0, nil
		}
		return nil, 0, fmt.Errorf("shardeddb: open txn log %s: %w", name, err)
	}
	defer f.Close()
	r := wal.NewReader(f)
	for {
		rec, rerr := r.ReadRecord()
		if rerr != nil {
			break // EOF or torn tail — scan ends
		}
		if len(rec) == 0 {
			continue
		}
		switch rec[0] {
		case txnRecEpoch:
			e, n := binary.Uvarint(rec[1:])
			if n > 0 && uint32(e) > maxEpoch {
				maxEpoch = uint32(e)
			}
		case txnRecCommit:
			if len(rec) == 9 {
				committed[binary.BigEndian.Uint64(rec[1:])] = true
			}
		}
	}
	db.txnName = name
	return committed, maxEpoch, nil
}

// writeTxnLog creates a fresh coordinator log carrying epoch and the
// still-pending committed IDs, atomically repoints TXNCUR at it, and
// removes the previous log. Called with txnMu held (or before the DB
// is shared).
func (db *DB) writeTxnLog(epoch uint32, gen int, pending []uint64) error {
	name := txnLogName(epoch, gen)
	f, err := db.metaFS.Create(name)
	if err != nil {
		return fmt.Errorf("shardeddb: create txn log: %w", err)
	}
	w := wal.NewWriter(f)
	rec := make([]byte, 1, 10)
	rec[0] = txnRecEpoch
	rec = binary.AppendUvarint(rec, uint64(epoch))
	if err := w.AddRecord(rec); err != nil {
		f.Close()
		return err
	}
	for _, id := range pending {
		r := make([]byte, 9)
		r[0] = txnRecCommit
		binary.BigEndian.PutUint64(r[1:], id)
		if err := w.AddRecord(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Sync(); err != nil {
		f.Close()
		return err
	}

	// Atomic pointer swap: the new log is fully durable before the
	// pointer moves, so a crash mid-rotation leaves the old log (and
	// every ID it carries) authoritative.
	tmp := txnCurName + ".tmp"
	pf, err := db.metaFS.Create(tmp)
	if err != nil {
		f.Close()
		return err
	}
	if _, err = pf.Write([]byte(name)); err == nil {
		err = pf.Sync()
	}
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = db.metaFS.Rename(tmp, txnCurName)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("shardeddb: point %s: %w", txnCurName, err)
	}

	if db.txnFile != nil {
		_ = db.txnFile.Close()
	}
	if db.txnName != "" && db.txnName != name {
		_ = db.metaFS.Remove(db.txnName)
		if db.shared.Space != nil {
			db.shared.Space.UntrackFile(metaSpaceKey(db.txnName))
		}
	}
	db.txnFile, db.txnLog, db.txnName = f, w, name
	if db.shared.Space != nil {
		if size, err := db.metaFS.Size(name); err == nil {
			db.shared.Space.TrackFile(metaSpaceKey(name), size)
		}
	}
	return nil
}

// rotateTxnLogLocked compacts the coordinator log: forces every
// shard's WAL down so completed phase-2 prepare deletions are durable,
// then rewrites the log with only the still-pending IDs. Failures are
// non-fatal — the old log just keeps growing until the next attempt.
// Caller holds txnMu.
func (db *DB) rotateTxnLogLocked() {
	db.txnDirty = 0
	for _, s := range db.shards {
		var sb batch.Batch
		sb.Put(syncMarkerKey, nil)
		if err := s.Apply(&sb, true); err != nil {
			return // shard unhealthy; retry at a later rotation
		}
	}
	pending := make([]uint64, 0, len(db.txnPending))
	for id := range db.txnPending {
		pending = append(pending, id)
	}
	db.txnGen++
	if err := db.writeTxnLog(db.txnEpoch, db.txnGen, pending); err != nil {
		return
	}
	db.txnLogRotation.Add(1)
}

// ---------------------------------------------------------------------
// Open-time resolution

// recoverTxns resolves every prepare record surviving from the last
// run — roll committed transactions forward, abort the rest — and
// starts a fresh coordinator epoch.
func (db *DB) recoverTxns() error {
	committed, maxEpoch, err := db.loadTxnLog()
	if err != nil {
		return err
	}

	for i, s := range db.shards {
		preps, err := db.scanPrepares(s)
		if err != nil {
			return fmt.Errorf("shardeddb: scan shard %d prepares: %w", i, err)
		}
		for _, p := range preps {
			if committed[p.id] {
				// Roll forward: re-apply the stored sub-batch and
				// retire the prepare, durably. Idempotent — the
				// prepare's sync means nothing after it in this
				// shard's WAL survived, so nothing newer is clobbered.
				sub, err := batch.FromRepr(p.payload)
				if err != nil {
					return fmt.Errorf("shardeddb: shard %d: decode prepared batch %#x: %w", i, p.id, err)
				}
				var fb batch.Batch
				fb.Append(sub)
				fb.Delete(prepKeyFor(p.id))
				if err := s.Apply(&fb, true); err != nil {
					return fmt.Errorf("shardeddb: shard %d: roll forward batch %#x: %w", i, p.id, err)
				}
				db.rolledForward.Add(1)
			} else {
				// Presumed abort: the commit record never became
				// durable, so no shard applied phase 2.
				var ab batch.Batch
				ab.Delete(prepKeyFor(p.id))
				if err := s.Apply(&ab, true); err != nil {
					return fmt.Errorf("shardeddb: shard %d: abort batch %#x: %w", i, p.id, err)
				}
				db.abortedAtOpen.Add(1)
			}
		}
	}

	// Fresh epoch; nothing is pending after full resolution.
	db.txnEpoch = maxEpoch + 1
	db.txnGen = 0
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	return db.writeTxnLog(db.txnEpoch, 0, nil)
}

type prepared struct {
	id      uint64
	payload []byte
}

// scanPrepares collects the surviving prepare records in one shard.
func (db *DB) scanPrepares(s *engine.DB) ([]prepared, error) {
	it, err := s.NewIter()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []prepared
	for it.SeekGE(prepPrefix); it.Valid(); it.Next() {
		id, ok := prepKeyID(it.Key())
		if !ok {
			break // past the prepare keyspace
		}
		payload := make([]byte, len(it.Value()))
		copy(payload, it.Value())
		out = append(out, prepared{id: id, payload: payload})
	}
	return out, it.Error()
}
