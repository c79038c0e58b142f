package shardeddb

import (
	"errors"

	"xpointdb/internal/engine"
)

// Iter iterates the whole keyspace in key order. Because shards
// partition the keyspace by range, global order is simply the
// concatenation of per-shard orders — no heap merge is needed; the
// iterator walks one shard at a time and hops to the neighbour when
// the current one is exhausted. Reserved (0x00-prefixed) bookkeeping
// keys — 2PC prepare records, sync markers — are skipped so callers
// only ever see user data.
//
// Each per-shard iterator pins that shard's SuperVersion eagerly at
// NewIter time, so the view is stable per shard; like engine
// iterators, the vector as a whole is not a single atomic snapshot
// across concurrently committing cross-shard batches (use NewSnapshot
// plus application-level fencing when that matters).
type Iter struct {
	db    *DB
	iters []*engine.Iter
	cur   int
	valid bool
	err   error
}

// NewIter returns an iterator over the live store.
func (db *DB) NewIter() (*Iter, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	return db.newIter(func(i int) (*engine.Iter, error) { return db.shards[i].NewIter() })
}

// newIter builds an Iter over the per-shard iterators open returns.
func (db *DB) newIter(open func(shard int) (*engine.Iter, error)) (*Iter, error) {
	it := &Iter{db: db, iters: make([]*engine.Iter, len(db.shards))}
	for i := range db.shards {
		si, err := open(i)
		if err != nil {
			for _, prev := range it.iters[:i] {
				prev.Close()
			}
			return nil, err
		}
		it.iters[i] = si
	}
	return it, nil
}

// Valid reports whether the iterator is positioned on a user entry.
func (it *Iter) Valid() bool { return it.valid && it.err == nil }

// Key returns the current key. Only valid while Valid().
func (it *Iter) Key() []byte { return it.iters[it.cur].Key() }

// Value returns the current value. Only valid while Valid().
func (it *Iter) Value() []byte { return it.iters[it.cur].Value() }

// Error returns the first error hit by any per-shard iterator.
func (it *Iter) Error() error { return it.err }

// SeekToFirst positions at the smallest user key in the store.
func (it *Iter) SeekToFirst() {
	if it.err != nil {
		return
	}
	it.cur = 0
	it.iters[0].SeekToFirst()
	it.skipFwd()
}

// SeekToLast positions at the largest user key in the store.
func (it *Iter) SeekToLast() {
	if it.err != nil {
		return
	}
	it.cur = len(it.iters) - 1
	it.iters[it.cur].SeekToLast()
	it.skipBwd()
}

// SeekGE positions at the smallest key ≥ key.
func (it *Iter) SeekGE(key []byte) {
	if it.err != nil {
		return
	}
	it.cur = it.db.ShardForKey(key)
	it.iters[it.cur].SeekGE(key)
	it.skipFwd()
}

// SeekLT positions at the largest key < key.
func (it *Iter) SeekLT(key []byte) {
	if it.err != nil {
		return
	}
	it.cur = it.db.ShardForKey(key)
	it.iters[it.cur].SeekLT(key)
	it.skipBwd()
}

// Next advances to the next user key, crossing shard boundaries.
func (it *Iter) Next() {
	if !it.Valid() {
		return
	}
	it.iters[it.cur].Next()
	it.skipFwd()
}

// Prev steps back to the previous user key, crossing shard boundaries.
func (it *Iter) Prev() {
	if !it.Valid() {
		return
	}
	it.iters[it.cur].Prev()
	it.skipBwd()
}

// skipFwd establishes the forward invariant: position on the next
// visible user key at or after the current point, hopping to later
// shards (from their start) as each one runs out.
func (it *Iter) skipFwd() {
	for {
		si := it.iters[it.cur]
		for si.Valid() && isInternalKey(si.Key()) {
			si.Next()
		}
		if si.Valid() {
			it.valid = true
			return
		}
		if err := si.Error(); err != nil {
			it.fail(err)
			return
		}
		if it.cur == len(it.iters)-1 {
			it.valid = false
			return
		}
		it.cur++
		it.iters[it.cur].SeekToFirst()
	}
}

// skipBwd is skipFwd's mirror for reverse iteration, hopping to
// earlier shards (from their end).
func (it *Iter) skipBwd() {
	for {
		si := it.iters[it.cur]
		for si.Valid() && isInternalKey(si.Key()) {
			si.Prev()
		}
		if si.Valid() {
			it.valid = true
			return
		}
		if err := si.Error(); err != nil {
			it.fail(err)
			return
		}
		if it.cur == 0 {
			it.valid = false
			return
		}
		it.cur--
		it.iters[it.cur].SeekToLast()
	}
}

func (it *Iter) fail(err error) {
	it.valid = false
	if it.err == nil {
		it.err = err
	}
}

// Close releases every per-shard iterator (and its pinned version).
func (it *Iter) Close() error {
	it.valid = false
	errs := []error{it.err}
	for _, si := range it.iters {
		if si != nil {
			errs = append(errs, si.Close())
		}
	}
	it.iters = nil
	return errors.Join(errs...)
}

// Snapshot pins a point-in-time view of every shard. The per-shard
// views are individually consistent; the vector is captured in shard
// order without a global write fence, so a cross-shard batch committing
// concurrently with NewSnapshot may appear in some participants only.
// Crash recovery (not snapshots) is where the all-or-nothing contract
// is enforced.
type Snapshot struct {
	db    *DB
	snaps []*engine.Snapshot
}

// NewSnapshot captures the current visible state of all shards.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	s := &Snapshot{db: db, snaps: make([]*engine.Snapshot, len(db.shards))}
	for i, sh := range db.shards {
		s.snaps[i] = sh.NewSnapshot()
	}
	return s, nil
}

// Get reads key as of the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	return s.snaps[s.db.ShardForKey(key)].Get(key)
}

// NewIter returns an iterator over the snapshot's view.
func (s *Snapshot) NewIter() (*Iter, error) {
	return s.db.newIter(func(i int) (*engine.Iter, error) { return s.snaps[i].NewIter() })
}

// Release unpins all per-shard snapshots. Safe to call more than once.
func (s *Snapshot) Release() {
	for _, snap := range s.snaps {
		snap.Release()
	}
}
