package engine

import "xpointdb/internal/manifest"

// CompactRange compacts every level holding data overlapping the user
// key range [start, end] down the tree, level by level, until each
// overlapping run has been pushed one level deeper. A nil start or end
// means "from the beginning" / "to the end". Like RocksDB's
// CompactRange it first flushes the memtable, then walks levels top
// down; it returns when the requested compactions have completed.
func (db *DB) CompactRange(start, end []byte) error {
	if err := db.Flush(); err != nil {
		return err
	}
	for level := 0; level < manifest.NumLevels-1; level++ {
		if err := db.compactLevelRange(level, start, end); err != nil {
			return err
		}
	}
	return nil
}

// compactLevelRange merges the files of one level overlapping the
// range into the next level, reusing the background worker's machinery
// but running on the caller's goroutine. It serializes with the
// background compactor via the compacting flag. The pick goes through
// the picker like every other compaction, so manual jobs get trivial
// moves and sub-compaction splitting too.
func (db *DB) compactLevelRange(level int, start, end []byte) error {
	db.mu.Lock()
	for db.compacting && !db.closed {
		db.bgCond.Wait()
	}
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	c := db.picker.pickRange(db.vs.Current(), level, start, end, db.liveSnapshotSeqs())
	if c == nil {
		db.mu.Unlock()
		return nil
	}
	err := db.compactNowLocked(c)
	// A damaged live input latches here as on the background path.
	db.maybeReportCorruption(err)
	return err
}
