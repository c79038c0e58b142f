package engine

// Case study B: dynamic Level-0 management. The paper's observation
// (Finding #2 / Analysis #2) is that, for a fixed aggregate Level-0
// volume V, fewer/larger L0 files favor reads (fewer tables to probe)
// while more/smaller files favor writes (shallower memtable inserts,
// shorter flushes). The adaptive worker measures the read/write mix
// over a sliding window and retunes the memtable budget — and with it
// the L0 file size — between V/ManyFiles (write-intensive) and
// V/FewFiles (read-intensive). V is adaptiveL0ManyFiles × the
// configured MemtableSize, so the write-intensive budget is the
// configured size itself. The budget in force is the
// xpointdb_memtable_budget_bytes gauge.

// adaptiveWorker runs while the DB is open, re-evaluating each window.
func (db *DB) adaptiveWorker() {
	for {
		db.clk.Sleep(adaptiveWindow)
		db.mu.Lock()
		closed := db.closed
		db.mu.Unlock()
		if closed {
			return
		}

		reads := db.windowReads.Swap(0)
		writes := db.windowWrites.Swap(0)
		total := reads + writes
		if total == 0 {
			continue
		}
		writeFrac := float64(writes) / float64(total)

		aggregate := adaptiveL0ManyFiles * db.opts.MemtableSize
		// Write-intensive: many small files; read-intensive: few large.
		target := aggregate / adaptiveL0FewFiles
		if writeFrac > adaptiveWriteIntensive {
			target = aggregate / adaptiveL0ManyFiles
		}
		db.SetMemtableBudget(target)
	}
}
