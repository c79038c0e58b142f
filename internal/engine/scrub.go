package engine

import (
	"errors"
	"time"

	"xpointdb/internal/events"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
)

// Background scrubber: a rate-limited worker that continuously cycles
// over every live SST verifying the whole file against its manifest
// checksum and every block against its trailer CRC. The read path only
// ever touches blocks a query needs — and the block cache means it may
// not touch the device at all — so latent media corruption in cold data
// would otherwise sit undetected until the worst moment (a compaction
// or a user read long after the damage). The scrub bounds that
// detection latency at roughly total-bytes / ScrubBytesPerSec, and
// detections route into the same quarantine/repair machinery as
// read-path failures (repair.go).

const (
	// scrubIdleDelay separates scrub passes (and precedes the first
	// one), keeping the scrubber out of the way of short-lived DBs and
	// letting the device breathe between cycles.
	scrubIdleDelay = time.Second
	// scrubQuantum slices pacing sleeps so Close is noticed promptly.
	scrubQuantum = 5 * time.Millisecond
)

// errScrubAborted aborts an in-flight Verify when the DB closes or a
// background error latches mid-pass; it is never surfaced.
var errScrubAborted = errors.New("engine: scrub pass aborted")

// scrubWorker is the background integrity process, started by Open
// unless Options.DisableScrub.
func (db *DB) scrubWorker() {
	for {
		if db.sleepUnlessClosed(scrubIdleDelay, scrubQuantum) {
			break // closed
		}
		db.mu.Lock()
		closed, latched := db.closed, db.bgErr != nil
		db.mu.Unlock()
		if closed {
			break
		}
		if latched {
			// Recovery owns the tree while an error is latched; scrub
			// reads would only contend with the repair.
			continue
		}
		db.runScrubPass()
	}
}

// runScrubPass verifies every SST live at the start of the pass. Files
// are pinned one at a time — each gets a fresh SuperVersion ref for the
// duration of its verify, so a multi-second pass never holds old
// versions (and their whole file sets) alive. Files compacted away
// between the snapshot and their turn are simply skipped. The pass
// aborts at the first corruption: the detection latches the error and
// recovery repairs the tree, after which the next pass re-verifies.
func (db *DB) runScrubPass() {
	pass := int(db.metrics.ScrubPassLatency.Count()) + 1
	sv := db.acquireSV()
	if sv == nil {
		return
	}
	var nums []uint64
	for l := 0; l < manifest.NumLevels; l++ {
		for _, f := range sv.ver.Files[l] {
			nums = append(nums, f.Num)
		}
	}
	db.releaseSV(sv)
	db.emitScrub(events.KindScrubBegin, &events.Scrub{Pass: pass, Files: len(nums)})
	passStart := db.clk.Now()

	var scanned int64
	corruptions := 0
	for _, num := range nums {
		sv := db.acquireSV()
		if sv == nil {
			return
		}
		level, meta := sv.ver.File(num)
		if meta == nil {
			db.releaseSV(sv)
			continue
		}
		st, err := db.scrubFile(meta)
		db.releaseSV(sv)
		scanned += st
		if err == nil {
			continue
		}
		if errors.Is(err, errScrubAborted) {
			return
		}
		corruptions++
		db.emitIntegrity(events.KindScrubCorruption, &events.Integrity{
			FileNum:  meta.Num,
			Level:    level,
			Smallest: string(keys.UserKey(meta.Smallest)),
			Largest:  string(keys.UserKey(meta.Largest)),
			Detail:   err.Error(),
		})
		db.maybeReportCorruption(err)
		break
	}

	db.metrics.ScrubPassLatency.Record(db.clk.Now().Sub(passStart))
	db.emitScrub(events.KindScrubComplete, &events.Scrub{
		Pass: pass, Files: len(nums), Bytes: scanned, Corruptions: corruptions,
	})
}

// scrubFile verifies one pinned SST through the table cache's reader.
// Verify bypasses the block cache, so damage on media is caught even
// when every query so far was served from cached (pre-damage) copies.
// Returns the bytes scanned (even on failure) for pass accounting.
func (db *DB) scrubFile(meta *manifest.FileMeta) (int64, error) {
	r, err := db.tables.get(meta)
	if err != nil {
		return 0, err
	}
	st, err := r.Verify(meta.Checksum, db.scrubPace)
	return st.Bytes, err
}

// scrubPace is the Verify pacing hook: it accounts the scanned bytes
// and sleeps n/ScrubBytesPerSec, erroring with errScrubAborted when the
// DB closes or an error latches mid-file. The owed time accumulates in
// scrubDebt and is slept only in whole quanta: per-block calls owe well
// under a millisecond each, and on a real clock that many tiny sleeps
// overshoot enough (scheduler granularity, CPU contention) to throttle
// the scrub to a small fraction of its budget.
func (db *DB) scrubPace(n int) error {
	db.metrics.ScrubbedBytes.Add(int64(n))
	db.scrubDebt += time.Duration(float64(n) / float64(db.opts.ScrubBytesPerSec) * float64(time.Second))
	for db.scrubDebt >= scrubQuantum {
		db.mu.Lock()
		stop := db.closed || db.bgErr != nil
		db.mu.Unlock()
		if stop {
			return errScrubAborted
		}
		db.clk.Sleep(scrubQuantum)
		db.scrubDebt -= scrubQuantum
	}
	return nil
}
