package engine

import (
	"sync/atomic"

	"xpointdb/internal/manifest"
	"xpointdb/internal/memtable"
)

// superVersion is the RocksDB-style read-path bundle: an immutable,
// refcounted snapshot of {mutable memtable, immutable memtables,
// version} that the write path swaps atomically on every memtable
// rotation, flush install and compaction install. Readers (Get, Has,
// iterators, snapshots reads) pin the current bundle with one atomic
// load + ref and hold it for their lifetime — no db.mu on the read hot
// path, and no SST referenced by the pinned version can be deleted
// while the pin is held (deletion is purely reference-driven; see
// manifest.Version and sweepZombies).
//
// The memtable pointers are shared with the live engine state: the
// mutable memtable is a concurrent skiplist, so a bundle installed
// before a write commits still exposes that write once visibleSeq
// covers it. Every newer bundle holds a superset of the committed data
// (rotation keeps the old memtable as an immutable, a flush replaces
// an immutable with its Level-0 file, compaction preserves data), so a
// reader that loads its snapshot sequence BEFORE pinning can never
// miss a write visible at that sequence.
type superVersion struct {
	db   *DB
	mem  *memtable.Memtable
	imms []flushedMem
	ver  *manifest.Version
	// seq is the visible sequence at install time (diagnostics; reads
	// load visibleSeq themselves, before pinning).
	seq uint64

	refs atomic.Int32
}

// tryRef attempts to pin sv. It fails only when the refcount already
// hit zero — which can only happen after an installer swapped the
// DB's pointer away from sv, so the caller's reload observes a newer
// bundle.
func (sv *superVersion) tryRef() bool {
	for {
		r := sv.refs.Load()
		if r < 1 {
			return false
		}
		if sv.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// unref drops one reference and reports whether it was the final one.
// The final release drops the bundle's version reference, which may
// push newly unreachable SSTs onto the zombie list; the caller decides
// when to sweep (installers run under db.mu and defer it, readers
// sweep immediately via releaseSV).
func (sv *superVersion) unref() bool {
	n := sv.refs.Add(-1)
	if n > 0 {
		return false
	}
	if n < 0 {
		panic("engine: SuperVersion refcount below zero")
	}
	sv.ver.Unref()
	sv.db.metrics.PinnedVersions.Add(-1)
	return true
}

// acquireSV pins the current SuperVersion for a read. Returns nil when
// the DB is closed (the pointer is swapped to nil during Close). The
// retry loop is bounded: installers swap the pointer BEFORE unreffing
// the old bundle, so every tryRef failure means the reload sees a
// strictly newer install.
func (db *DB) acquireSV() *superVersion {
	for {
		sv := db.sv.Load()
		if sv == nil {
			return nil
		}
		if sv.tryRef() {
			return sv
		}
	}
}

// releaseSV drops a reader's pin. A final release means the pinned
// version just died and may have produced zombies; the reader's
// goroutine sweeps them here, off db.mu — paying for the GC its pin
// deferred.
func (db *DB) releaseSV(sv *superVersion) {
	if sv.unref() {
		db.sweepZombies()
	}
}

// installSuperVersionLocked publishes a new SuperVersion built from
// the current {mem, imms, version}. Callers hold db.mu (Open calls it
// before any concurrency exists). The new bundle is swapped in BEFORE
// the old one is unreffed so the reader acquire loop stays bounded.
// Zombies emitted by the old bundle's final release are NOT swept here
// (no I/O under db.mu); the caller's next deleteObsoleteFiles — or the
// last reader's releaseSV — collects them.
func (db *DB) installSuperVersionLocked(reason string) {
	ver := db.vs.Current()
	ver.Ref()
	sv := &superVersion{
		db:   db,
		mem:  db.mem,
		imms: append([]flushedMem(nil), db.imms...),
		ver:  ver,
		seq:  db.visibleSeq.Load(),
	}
	sv.refs.Store(1)
	db.metrics.PinnedVersions.Add(1)
	db.metrics.SuperVersionInstalls.Add(1)
	old := db.sv.Swap(sv)
	if old != nil {
		old.unref()
	}
	db.emitSuperVersionInstall(reason, len(sv.imms), ver.NumFiles(0))
}

// sweepZombies deletes every SST whose last version reference has
// dropped. This is the sole trigger for SST deletion at runtime: a
// file number reaches the zombie list exactly once, when no current or
// pinned version can reach it, so eviction may close the table reader
// outright. Safe to call from any goroutine WITHOUT db.mu (the zombie
// list has its own lock).
func (db *DB) sweepZombies() {
	zombies := db.vs.TakeZombies()
	if len(zombies) == 0 {
		return
	}
	for _, num := range zombies {
		db.tables.evict(num)
		_ = db.spaceRemove(db.fs, manifest.SSTName(num))
	}
	db.metrics.ZombieFilesDeleted.Add(int64(len(zombies)))
	db.emitObsoleteGC(zombies)
}
