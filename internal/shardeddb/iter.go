package shardeddb

import (
	"bytes"

	"xpointdb/internal/engine"
	"xpointdb/internal/iterator"
)

// NewIter returns an iterator over the live store: a snapshot of every
// shard, read through Snapshot.NewIter, that the iterator owns and
// releases on Close.
func (db *DB) NewIter() (iterator.Iterator, error) {
	s, err := db.NewSnapshot()
	if err != nil {
		return nil, err
	}
	it := s.newIter()
	it.snap = s
	return it, nil
}

// userIter hides the reserved 0x00-prefixed bookkeeping keys — 2PC
// prepare records, sync markers — in both directions, so callers only
// ever see user data. It embeds the Concat itself, not the interface,
// so the calls it passes through stay direct.
type userIter struct {
	*iterator.Concat
	snap *Snapshot // released on Close when the iterator owns it
}

func (it *userIter) skipFwd() {
	for it.Valid() && isInternalKey(it.Key()) {
		it.Concat.Next()
	}
}

func (it *userIter) skipBwd() {
	for it.Valid() && isInternalKey(it.Key()) {
		it.Concat.Prev()
	}
}

func (it *userIter) SeekGE(key []byte) { it.Concat.SeekGE(key); it.skipFwd() }
func (it *userIter) SeekToFirst()      { it.Concat.SeekToFirst(); it.skipFwd() }
func (it *userIter) Next()             { it.Concat.Next(); it.skipFwd() }
func (it *userIter) SeekLT(key []byte) { it.Concat.SeekLT(key); it.skipBwd() }
func (it *userIter) SeekToLast()       { it.Concat.SeekToLast(); it.skipBwd() }
func (it *userIter) Prev()             { it.Concat.Prev(); it.skipBwd() }

// Close closes the open shard iterator and, if the iterator owns its
// snapshot, releases it. Safe to call more than once.
func (it *userIter) Close() error {
	err := it.Concat.Close()
	if it.snap != nil {
		it.snap.Release()
		it.snap = nil
	}
	return err
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

// NewIter returns an iterator over the snapshot's view of the whole
// keyspace in key order. Shards partition the keyspace by range, so
// that order is the concatenation of the shards' own: one
// iterator.Concat over the per-shard snapshot iterators, which opens a
// shard's engine iterator — and pins that shard's SuperVersion — only
// when a seek or a step reaches the shard, and closes it on leaving.
func (s *Snapshot) NewIter() (iterator.Iterator, error) {
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	return s.newIter(), nil
}

func (s *Snapshot) newIter() *userIter {
	bounds, last := s.db.boundaries, len(s.snaps)-1
	return &userIter{Concat: iterator.NewConcat(len(s.snaps),
		func(i int) (iterator.Iterator, error) { return s.snaps[i].NewIter() },
		func(i int, target []byte) bool { return i == last || bytes.Compare(target, bounds[i]) < 0 },
	)}
}

// Release unpins all per-shard snapshots. Safe to call more than once.
func (s *Snapshot) Release() {
	for _, snap := range s.snaps {
		snap.Release()
	}
}
