package engine

import (
	"time"

	"xpointdb/internal/manifest"
)

// Shared plumbing of the background-job path (DESIGN §15): the worker
// lifecycle, the closed-aware sleep, what a running job holds, and the
// cleanup of outputs that never reached a version.

// startWorkerLocked runs fn as a counted background process; Close
// waits for the count to reach zero. fn returns without db.mu. Callers
// hold db.mu.
func (db *DB) startWorkerLocked(name string, fn func()) {
	db.liveWorkers++
	db.clk.Go(name, func() {
		fn()
		db.mu.Lock()
		db.liveWorkers--
		db.bgCond.Broadcast()
		db.mu.Unlock()
	})
}

// sleepUnlessClosed sleeps d in slices of quantum and reports whether
// the DB closed, returning early when it did: clock.Cond has no timed
// wait, and a plain Sleep could stall Close by the whole of d.
func (db *DB) sleepUnlessClosed(d, quantum time.Duration) bool {
	for {
		db.mu.Lock()
		closed := db.closed
		db.mu.Unlock()
		if closed || d <= 0 {
			return closed
		}
		step := d
		if step > quantum {
			step = quantum
		}
		db.clk.Sleep(step)
		d -= step
	}
}

// bgHold is what a running background job holds of the shared
// resources: its space reservation and its pool tokens (the job's own
// plus any extra sub-compaction lanes). Whoever acquires adds to it;
// release is the one place anything is handed back.
type bgHold struct {
	db     *DB
	space  int64
	tokens int
}

// acquireToken blocks for one pool token at prio. Call without db.mu:
// the pool parks on its own cond.
func (h *bgHold) acquireToken(prio float64) {
	h.db.pool.AcquireTag(prio, h.db.index)
	h.tokens++
}

// acquireLanes takes up to n extra tokens without blocking, priced
// like the job's own, and returns how many lanes beyond the first the
// job may run: idle slots speed it up, but a queued flush (strictly
// higher priority) keeps its claim on every free token. A lone
// engine's pool has a slot for every lane, so it fans out fully. Call
// without db.mu.
func (h *bgHold) acquireLanes(score float64, n int) int {
	h.db.mu.Lock()
	prio := h.db.compactPriorityLocked(score)
	h.db.mu.Unlock()
	n = h.db.pool.TryAcquireN(prio, n, h.db.index)
	h.tokens += n
	return n
}

// release hands everything back. Call without db.mu: a ladder-state
// change notifies subscribers, which re-take it.
func (h *bgHold) release() {
	h.db.pool.ReleaseN(h.tokens)
	if sm := h.db.space; sm != nil && h.space > 0 {
		// The outputs are tracked as used bytes by now (or were
		// removed); holding on would double-count them.
		sm.Release(h.space)
	}
}

// removeUninstalledOutputs deletes the outputs of a failed flush or
// compaction: never installed in a version, no reference protects or
// reaps them. While a manifest failure is latched they are kept
// instead (see canDeleteFailedOutputLocked) and remembered, so the
// manifest roll that heals the latch can reclaim them. Call without
// db.mu.
func (db *DB) removeUninstalledOutputs(nums []uint64) {
	db.mu.Lock()
	if !db.canDeleteFailedOutputLocked() {
		db.keptOutputs = append(db.keptOutputs, nums...)
		nums = nil
	}
	db.mu.Unlock()
	for _, n := range nums {
		_ = db.spaceRemove(db.fs, manifest.SSTName(n))
	}
}

// canDeleteFailedOutputLocked reports whether the partial output of a
// failed flush or compaction may be removed from disk. It may NOT be
// when a manifest failure is latched. After manifest-install the edit
// naming the file was durably appended before the in-memory install
// diverged; after manifest-append — which includes a failed sync — the
// edit's bytes are in the file and can survive a crash. Either way the
// next open's manifest replay may reference the file and must find it;
// when the bytes did not survive, the open-time orphan sweep reclaims
// it. A build error leaves the file unnamed by any manifest state.
// Callers hold db.mu.
func (db *DB) canDeleteFailedOutputLocked() bool {
	if db.bgErr == nil {
		return true
	}
	be, ok := db.bgErr.(*BackgroundError)
	return ok && be.Op != opManifestInstall && be.Op != opManifestAppend
}
