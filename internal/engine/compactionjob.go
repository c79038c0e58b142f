package engine

import (
	"bytes"

	"xpointdb/internal/iterator"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
)

// compactionStats summarizes one compaction job for events and
// metrics; partial values are reported when the job fails mid-way.
type compactionStats struct {
	read    int64
	written int64
	outputs int
	entries int64
	// subs is how many sub-compactions the job ran (0 for a trivial
	// move, 1 for an unsplit merge).
	subs int
}

// subResult collects one sub-compaction's products for the job-level
// rollup and the all-or-nothing install.
type subResult struct {
	outputs []*manifest.FileMeta
	outNums []uint64
	read    int64
	written int64
	entries int64
	err     error
}

// runCompactionJob is the compaction MECHANISM: execute a picked
// compaction — as a pure manifest edit for a trivial move, otherwise
// as up to MaxSubcompactions concurrent bounded merge loops — and
// install ONE atomic version edit for the whole job, so a crash at any
// point leaves either the old version or the new one, never a mix.
// Extra lane tokens are added to held, which the caller releases.
// Called without db.mu; the caller holds db.compacting.
func (db *DB) runCompactionJob(c *compaction, held *bgHold) (stats compactionStats, err error) {
	if c.trivialMove {
		return db.runTrivialMove(c)
	}
	subs := c.subs
	if len(subs) == 0 {
		all := make([]*manifest.FileMeta, 0, len(c.inputs)+len(c.overlaps))
		all = append(all, c.inputs...)
		all = append(all, c.overlaps...)
		subs = []subrange{{inputs: all}}
	}
	stats.subs = len(subs)

	lanes := 1
	if len(subs) > 1 {
		lanes += held.acquireLanes(c.score, len(subs)-1)
	}

	results := make([]subResult, len(subs))
	// The caller's goroutine is one lane; the rest are spawned via the
	// engine clock so the fan-out works under the sim kernel. Lanes
	// dispense sub-range indices from a shared counter and stop
	// claiming new ones after the first failure (in-flight subs finish;
	// their outputs are cleaned up below). With one lane the caller
	// runs every sub in order: its uncontended lock never yields.
	m := db.clk.NewMutex()
	done := db.clk.NewCond(m)
	next, running, failed := 0, lanes, false
	lane := func() {
		m.Lock()
		for !failed && next < len(subs) {
			i := next
			next++
			m.Unlock()
			db.runSubcompaction(c, subs[i], &results[i])
			m.Lock()
			if results[i].err != nil {
				failed = true
			}
		}
		running--
		if running == 0 {
			done.Broadcast()
		}
		m.Unlock()
	}
	for i := 1; i < lanes; i++ {
		db.clk.Go("subcompact", lane)
	}
	lane()
	m.Lock()
	for running > 0 {
		done.Wait()
	}
	m.Unlock()

	var outNums []uint64
	for i := range results {
		r := &results[i]
		stats.read += r.read
		stats.written += r.written
		stats.outputs += len(r.outputs)
		stats.entries += r.entries
		outNums = append(outNums, r.outNums...)
		if r.err != nil && err == nil {
			err = r.err
		}
	}
	if len(subs) > 1 {
		db.metrics.Subcompactions.Add(int64(len(subs)))
	}

	if err == nil {
		// One edit for the whole job: every input (and shadowed
		// output-level file) out, every sub-compaction's outputs in.
		// Sub-ranges are disjoint in user-key space and results are
		// rolled up in range order, so the output-level invariants hold.
		edit := &manifest.Edit{}
		for _, f := range c.inputs {
			edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: c.level, Num: f.Num})
		}
		for _, f := range c.overlaps {
			edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: c.outputLevel, Num: f.Num})
		}
		for i := range results {
			for _, f := range results[i].outputs {
				edit.Added = append(edit.Added, manifest.AddedFile{Level: c.outputLevel, Meta: f})
			}
		}
		err = db.commitEditWith(edit, c.recovery)
	}
	if err != nil {
		db.removeUninstalledOutputs(outNums)
		return stats, err
	}
	db.metrics.CompactionBytesRead.Add(stats.read)
	db.metrics.CompactionBytesWritten.Add(stats.written)
	db.metrics.CompactionEntriesMerged.Add(stats.entries)
	return stats, nil
}

// runTrivialMove relocates c's inputs to the output level with a pure
// manifest edit: same FileMeta (same refcount identity, same on-disk
// bytes), zero data I/O. Correct because nothing at the output level
// overlaps the inputs — no keys to merge, no versions to collapse —
// and dropping tombstones or shadowed versions is an optimization a
// later rewrite still gets to make.
func (db *DB) runTrivialMove(c *compaction) (stats compactionStats, err error) {
	edit := &manifest.Edit{}
	for _, f := range c.inputs {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: c.level, Num: f.Num})
		edit.Added = append(edit.Added, manifest.AddedFile{Level: c.outputLevel, Meta: f})
	}
	if err := db.commitEditWith(edit, c.recovery); err != nil {
		return stats, err
	}
	stats.outputs = len(c.inputs)
	db.metrics.TrivialMoves.Add(int64(len(c.inputs)))
	return stats, nil
}

// runSubcompaction merges one sub-range of the job's inputs into new
// files at c.outputLevel, writing products into res. It is the
// pre-split merge loop bounded to user keys in [sub.start, sub.end):
// inputs are bulk-read (only the byte window the bounds can touch),
// outputs cut at user-key boundaries, snapshot stripes and tombstone
// elision per key. It installs nothing — the job-level edit does.
// Safe to run concurrently with other sub-compactions: shared state is
// touched only under db.mu (file-number allocation) or via atomics.
func (db *DB) runSubcompaction(c *compaction, sub subrange, res *subResult) {
	var startIK, endIK []byte
	if sub.start != nil {
		startIK = keys.SearchKey(sub.start, keys.MaxSeq)
	}
	if sub.end != nil {
		endIK = keys.SearchKey(sub.end, keys.MaxSeq)
	}

	// Inputs are read with one sequential bulk read per file
	// (compaction readahead): the device is charged a streaming
	// transfer instead of a random 4 KiB read per block, matching
	// how real compactions read. Bounded sub-ranges fetch only the
	// data-block window their bounds can touch.
	//
	// Every block the merge reads is a sub-slice of an input's window,
	// and every entry it keeps is copied into an output block, so the
	// windows go back to the free list when this lane is done with
	// them.
	iters := make([]iterator.Iterator, 0, len(sub.inputs))
	windows := make([][]byte, 0, len(sub.inputs))
	defer func() {
		for _, w := range windows {
			db.windows.put(w)
		}
	}()
	for _, f := range sub.inputs {
		var (
			r    *sstable.Reader
			w    []byte
			oerr error
		)
		if startIK == nil && endIK == nil {
			r, w, oerr = db.openCompactionInput(f)
		} else {
			r, w, oerr = db.openCompactionInputWindow(f, startIK, endIK)
		}
		if oerr != nil {
			res.err = oerr
			return
		}
		if r == nil {
			continue // no block of f intersects the range
		}
		windows = append(windows, w)
		res.read += int64(len(w))
		iters = append(iters, r.NewIter())
	}
	if len(iters) == 0 {
		return
	}
	merged := iterator.NewMerging(iters...)
	defer merged.Close()

	var (
		out         *tableWriter // the output being filled, nil between files
		entries     int
		lastUserKey []byte
		haveLast    bool
	)
	defer func() {
		if res.err != nil && out != nil {
			out.abort()
		}
	}()
	finishOutput := func() error {
		if out == nil {
			return nil
		}
		meta, err := out.finish()
		out = nil
		if err != nil {
			return err
		}
		res.outputs = append(res.outputs, meta)
		res.written += meta.Size
		return nil
	}

	// prevStripe is the snapshot stripe of the newest retained (or
	// elided-tombstone) version of lastUserKey; -1 when no version of
	// the current key has been seen yet.
	prevStripe := -1
	if startIK != nil {
		merged.SeekGE(startIK)
	} else {
		merged.SeekToFirst()
	}
	for ; merged.Valid(); merged.Next() {
		ikey := merged.Key()
		userKey := keys.UserKey(ikey)
		if sub.end != nil && keys.CompareUserKeys(userKey, sub.end) >= 0 {
			break // the rest of the key space belongs to the next sub
		}
		entries++
		if db.cost != nil && entries%compactChargeBatch == 0 {
			db.cost.ChargeCompactEntries(db.clk, compactChargeBatch)
		}

		if !haveLast || !bytes.Equal(userKey, lastUserKey) {
			// Output files may only be cut at user-key boundaries:
			// L1+ files must be disjoint in user-key space, and
			// snapshots can retain several versions of one key, so
			// cutting on size alone could strand versions of the
			// same key in adjacent files — an invalid version edit.
			if out != nil && out.estimatedSize() >= db.opts.TargetFileSize {
				if res.err = finishOutput(); res.err != nil {
					return
				}
			}
			lastUserKey = append(lastUserKey[:0], userKey...)
			haveLast = true
			prevStripe = -1
		}

		// Keep the newest version of the key within each snapshot
		// stripe; versions shadowed by a newer one in the same
		// stripe are invisible to every snapshot and can go.
		seq, kind := keys.Trailer(ikey)
		stripe := stripeOf(c.snaps, seq)
		if stripe == prevStripe {
			continue
		}
		prevStripe = stripe

		if kind == keys.KindDelete && stripe == 0 && db.isBaseLevel(c, userKey) {
			// Tombstone in the lowest stripe with nothing
			// underneath: elide. It still counts as the stripe's
			// retained version (older same-stripe versions stay
			// dropped), which preserves its delete semantics.
			continue
		}

		if out == nil {
			db.mu.Lock()
			num := db.vs.AllocFileNum()
			db.mu.Unlock()
			res.outNums = append(res.outNums, num)
			if out, res.err = db.newTableWriter(num); res.err != nil {
				return
			}
		}
		if res.err = out.add(ikey, merged.Value()); res.err != nil {
			return
		}
	}
	if res.err = merged.Error(); res.err != nil {
		return
	}
	if res.err = finishOutput(); res.err != nil {
		return
	}
	if db.cost != nil {
		db.cost.ChargeCompactEntries(db.clk, entries%compactChargeBatch)
	}
	res.entries = int64(entries)
}
