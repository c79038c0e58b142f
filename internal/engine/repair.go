package engine

import (
	"errors"
	"fmt"

	"xpointdb/internal/events"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
	"xpointdb/internal/vfs"
)

// Corruption quarantine & repair (the recovery side of the integrity
// tentpole; detection lives in sstable block/file checksums and the
// scrubber). A checksum failure in a LIVE SST latches opCorruption
// (hard), and the recovery worker lands here:
//
//  1. Quarantine — durably mark the file in the MANIFEST (tag 7) so the
//     damage survives restarts and re-detection resumes repair after a
//     crash. A quarantined file keeps serving its intact blocks: block
//     checksums guarantee a read either returns verified bytes or an
//     error, so excluding the whole file would only widen the outage.
//  2. Salvage — re-compact the damaged file (plus its next-level
//     overlaps) one level down. Undamaged blocks carry every key they
//     hold into fresh, fully-checksummed outputs; if the corruption was
//     transient (a bitrotted read, not bitrotted media) the rewrite
//     recovers everything.
//  3. Data loss — if the salvage read keeps failing on the same media,
//     drop the unreadable file from the version and report the precise
//     affected user-key range in a data_loss event. Reads outside the
//     range are untouched; inside it, older versions from deeper levels
//     may resurface. This is the honest endpoint RocksDB reaches with
//     best_efforts_recovery: bounded, named loss instead of a
//     permanently wedged DB.
//
// Every path out of recoverCorruption except a genuine I/O failure
// returns nil so the latch clears: the damaged file is then either
// repaired or gone, and a *different* damaged file re-latches on its
// next detection — each cycle removes one damaged file, so repeated
// corruption converges instead of wedging the recovery worker.

// maybeReportCorruption routes err into the quarantine/repair machinery
// if it is (or wraps) an SST checksum failure. Detection is counted for
// every corruption; the hard latch engages only when the damaged file
// is live in the current version — a paranoid check failing on a
// not-yet-installed flush or compaction output stays a soft, retryable
// build failure, and a file already compacted away needs nothing.
func (db *DB) maybeReportCorruption(err error) {
	var ce *sstable.CorruptionError
	if !errors.As(err, &ce) {
		return
	}
	db.metrics.CorruptionsDetected.Add(1)
	db.mu.Lock()
	defer db.mu.Unlock()
	if level, _ := db.vs.Current().File(ce.FileNum); level < 0 {
		return
	}
	db.setBackgroundErrorLocked(opCorruption, err)
}

// paranoidVerify re-reads a just-built, just-synced SST end to end —
// file checksum plus every block checksum — before its version edit can
// install it (Options.ParanoidFileChecks; RocksDB's paranoid_file_checks).
// The reader borrows the caller's still-open handle, so it is NOT
// closed here. A failure aborts the flush/compaction, which retries
// from its still-live inputs — damaged output never becomes durable
// state.
func (db *DB) paranoidVerify(f vfs.File, size int64, num uint64, sum uint32) error {
	r, err := sstable.NewReader(f, size, num, nil)
	if err != nil {
		return fmt.Errorf("engine: paranoid check of sst %d: %w", num, err)
	}
	if _, err := r.Verify(sum, nil); err != nil {
		return fmt.Errorf("engine: paranoid check of sst %d: %w", num, err)
	}
	return nil
}

// salvageTries is how many times recovery re-attempts the repair
// compaction before concluding the corruption is persistent (on-media,
// not a transient read fault) and declaring data loss.
const salvageTries = 2

// recoverCorruption is the recovery procedure for a latched corruption
// error: quarantine, salvage by re-compaction, or bounded data loss.
// Called from recoverOnce with db.recovering set and db.mu not held; a
// nil return clears the latch.
func (db *DB) recoverCorruption(be *BackgroundError) error {
	var ce *sstable.CorruptionError
	if !errors.As(be.Err, &ce) {
		return fmt.Errorf("engine: corruption latch without file identity: %w", be.Err)
	}

	db.mu.Lock()
	if !db.quiesceForRecoveryLocked() {
		db.mu.Unlock()
		return ErrClosed
	}
	level, meta := db.vs.Current().File(ce.FileNum)
	db.mu.Unlock()
	if meta == nil {
		// The damaged file left the version since the latch (a normal
		// compaction consumed it before idling): nothing to repair.
		return nil
	}

	if !meta.Quarantined() {
		if err := db.quarantineFile(level, meta, ce); err != nil {
			return err
		}
	}

	// Salvage: the repair read verifies every block it merges, so a
	// success proves the outputs hold everything recoverable. A repeat
	// corruption failure may name a different file than the original
	// (an overlap rotted too) — the loss declaration drops whichever
	// file the last read actually failed on; the original re-latches on
	// its next detection and repairs against the now-smaller overlap
	// set, so multi-file damage converges one file per cycle.
	lastCorrupt := ce
	for try := 0; try < salvageTries; try++ {
		err := db.repairCompaction(level, meta)
		if err == nil {
			db.metrics.CorruptionsRepaired.Add(1)
			db.emitIntegrity(events.KindRepair, &events.Integrity{
				FileNum:  meta.Num,
				Level:    level,
				Smallest: string(keys.UserKey(meta.Smallest)),
				Largest:  string(keys.UserKey(meta.Largest)),
				Detail:   lastCorrupt.Detail,
			})
			return nil
		}
		var again *sstable.CorruptionError
		if !errors.As(err, &again) {
			// A non-corruption failure (create, sync, manifest append):
			// genuinely transient — let the recovery loop back off and
			// re-enter with the quarantine mark already durable.
			return err
		}
		lastCorrupt = again
	}
	return db.declareDataLoss(lastCorrupt)
}

// quarantineFile durably marks meta as quarantined via a tag-7 version
// edit committed with the recovery bypass (the latch is still set).
func (db *DB) quarantineFile(level int, meta *manifest.FileMeta, ce *sstable.CorruptionError) error {
	edit := &manifest.Edit{
		Quarantined: []manifest.QuarantinedFile{{Level: level, Num: meta.Num}},
	}
	if err := db.commitEditWith(edit, true); err != nil {
		return err
	}
	db.metrics.FilesQuarantined.Add(1)
	db.emitIntegrity(events.KindQuarantine, &events.Integrity{
		FileNum:  meta.Num,
		Level:    level,
		Smallest: string(keys.UserKey(meta.Smallest)),
		Largest:  string(keys.UserKey(meta.Largest)),
		Detail:   ce.Detail,
	})
	return nil
}

// repairCompaction re-compacts the quarantined file one level down,
// reusing the normal compaction machinery on the recovery goroutine
// (the background workers idle while the latch is set). For a Level-0
// file ALL of L0 joins the input set — moving one L0 file below an
// overlapping older sibling would let the sibling's stale values win
// the newest-first L0 probe. For a bottom-level file the rewrite stays
// in place (outputs at the same level, no overlaps).
func (db *DB) repairCompaction(level int, meta *manifest.FileMeta) error {
	db.mu.Lock()
	c := db.picker.pickRepair(db.vs.Current(), level, meta, db.liveSnapshotSeqs())
	// Takes the compacting flag, excluding a concurrent manual
	// CompactRange for the duration (the background compactor is
	// already idling on the latch).
	return db.compactNowLocked(c)
}

// declareDataLoss drops the unreadable file from the version and
// reports the precise affected user-key range. The data_loss event is
// emitted before the drop installs, so every read that can observe the
// drop is sequenced after the declaration; if the install then fails,
// the range was declared but not lost, and the retry declares it again.
// Returning nil clears the latch: the DB resumes with bounded, named
// loss instead of wedging.
func (db *DB) declareDataLoss(ce *sstable.CorruptionError) error {
	db.mu.Lock()
	level, meta := db.vs.Current().File(ce.FileNum)
	db.mu.Unlock()
	if meta == nil {
		return nil
	}
	db.emitIntegrity(events.KindDataLoss, &events.Integrity{
		FileNum:  meta.Num,
		Level:    level,
		Smallest: string(keys.UserKey(meta.Smallest)),
		Largest:  string(keys.UserKey(meta.Largest)),
		Detail:   ce.Detail,
	})
	edit := &manifest.Edit{
		Deleted: []manifest.DeletedFile{{Level: level, Num: meta.Num}},
	}
	if err := db.commitEditWith(edit, true); err != nil {
		return err
	}
	db.metrics.DataLossEvents.Add(1)
	db.deleteObsoleteFiles()
	return nil
}
