package engine

import (
	"bytes"

	"xpointdb/internal/iterator"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
)

// dbIter is a bidirectional iterator over the database's user keys at a
// fixed sequence snapshot, merging memtables and all levels and
// resolving versions and tombstones. It pins the SuperVersion it was
// built from for its whole lifetime, so a scan can outlive any number
// of flushes and compactions without losing an SST mid-iteration;
// Close releases the pin (a leaked iterator is reported by db.Close).
type dbIter struct {
	db     *DB
	sv     *superVersion
	merged *iterator.Merging
	snap   uint64
	closed bool

	key     []byte
	value   []byte
	skipKey []byte // the deleted user key findNextVisible skips
	valid   bool
	forward bool
	err     error
}

// NewIter returns an iterator over the current database state. It
// observes a consistent snapshot: writes committed after creation are
// invisible.
func (db *DB) NewIter() (iterator.Iterator, error) {
	return db.newIterAt(db.visibleSeq.Load())
}

// newIterAt returns an iterator pinned to sequence snapshot snap. The
// SuperVersion acquired here is held until Close: its version refs
// every SST the scan may touch, so none can be deleted underneath it.
// A failure returns a nil interface, never a typed nil *dbIter.
func (db *DB) newIterAt(snap uint64) (iterator.Iterator, error) {
	sv := db.acquireSV()
	if sv == nil {
		return nil, ErrClosed
	}

	var children []iterator.Iterator
	fail := func(err error) (iterator.Iterator, error) {
		for _, c := range children {
			_ = c.Close()
		}
		db.releaseSV(sv)
		return nil, err
	}
	children = append(children, sv.mem.NewIter())
	for i := len(sv.imms) - 1; i >= 0; i-- {
		children = append(children, sv.imms[i].mem.NewIter())
	}
	// L0: one iterator per file, newest first.
	l0 := sv.ver.Files[0]
	for i := len(l0) - 1; i >= 0; i-- {
		r, err := db.tables.get(l0[i])
		if err != nil {
			return fail(err)
		}
		children = append(children, r.NewIter())
	}
	// L1+: one concat iterator per level. Readers are resolved eagerly
	// while the pin already protects them; the pin — not the handles —
	// is what keeps the files on disk until Close.
	for l := 1; l < manifest.NumLevels; l++ {
		files := sv.ver.Files[l]
		if len(files) == 0 {
			continue
		}
		readers := make([]*sstable.Reader, len(files))
		for i, f := range files {
			r, err := db.tables.get(f)
			if err != nil {
				return fail(err)
			}
			readers[i] = r
		}
		children = append(children, iterator.NewConcat(
			len(readers),
			func(i int) (iterator.Iterator, error) { return readers[i].NewIter(), nil },
			func(i int, target []byte) bool {
				return keys.Compare(files[i].Largest, target) >= 0
			},
		))
	}

	db.openIters.Add(1)
	return &dbIter{
		db:     db,
		sv:     sv,
		merged: iterator.NewMerging(children...),
		snap:   snap,
	}, nil
}

// findNextVisible advances the underlying merged stream to the next
// visible, live user key at or after the current position.
func (it *dbIter) findNextVisible() {
	it.valid = false
	for it.merged.Valid() {
		ikey := it.merged.Key()
		seq, kind := keys.Trailer(ikey)
		userKey := keys.UserKey(ikey)

		if seq > it.snap {
			// Not visible at this snapshot; try the next version of
			// the same (or a later) key.
			it.merged.Next()
			continue
		}
		if kind == keys.KindDelete {
			// Deleted: skip every remaining version of this key. The
			// user key points into a block the skip moves off, so it
			// is copied first.
			it.skipKey = append(it.skipKey[:0], userKey...)
			it.skipUserKey(it.skipKey)
			continue
		}
		// Newest visible version and it is a Set: emit.
		it.key = append(it.key[:0], userKey...)
		it.value = append(it.value[:0], it.merged.Value()...)
		it.valid = true
		return
	}
	it.err = it.merged.Error()
}

// skipUserKey advances past every remaining entry of userKey, which
// must not point into the merged stream: Next passes it.key, the
// delete path it.skipKey.
func (it *dbIter) skipUserKey(userKey []byte) {
	for it.merged.Valid() && bytes.Equal(keys.UserKey(it.merged.Key()), userKey) {
		it.merged.Next()
	}
}

// findPrevVisible scans the merged stream backward for the previous
// live, visible user key. Moving backward, the versions of one user
// key arrive oldest→newest (internal order holds newest first), so the
// scan keeps overwriting the saved state for the current key group and
// decides — emit or skip — when the group ends.
func (it *dbIter) findPrevVisible() {
	it.valid = false
	var (
		haveGroup bool
		groupKey  []byte
		groupKind keys.Kind
		groupVal  []byte
	)
	emit := func() bool {
		if haveGroup && groupKind == keys.KindSet {
			it.key = append(it.key[:0], groupKey...)
			it.value = append(it.value[:0], groupVal...)
			it.valid = true
			return true
		}
		return false
	}
	for it.merged.Valid() {
		ikey := it.merged.Key()
		seq, kind := keys.Trailer(ikey)
		userKey := keys.UserKey(ikey)

		if haveGroup && !bytes.Equal(userKey, groupKey) {
			if emit() {
				// merged stays at an entry of the next-smaller
				// user key; the following Prev resumes there.
				return
			}
			haveGroup = false
			continue // reprocess this entry as a new group
		}
		if seq <= it.snap {
			groupKey = append(groupKey[:0], userKey...)
			groupKind = kind
			groupVal = append(groupVal[:0], it.merged.Value()...)
			haveGroup = true
		}
		it.merged.Prev()
	}
	if !emit() {
		it.err = it.merged.Error()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *dbIter) Valid() bool { return it.valid && it.err == nil }

// SeekGE positions at the first user key ≥ key.
func (it *dbIter) SeekGE(key []byte) {
	it.merged.SeekGE(keys.SearchKey(key, it.snap))
	it.forward = true
	it.findNextVisible()
}

// SeekLT positions at the last user key < key.
func (it *dbIter) SeekLT(key []byte) {
	// SearchKey(key, MaxSeq) sorts before every entry of key, so
	// SeekLT on it lands strictly inside the previous user key.
	it.merged.SeekLT(keys.SearchKey(key, keys.MaxSeq))
	it.forward = false
	it.findPrevVisible()
}

// SeekToFirst positions at the first user key.
func (it *dbIter) SeekToFirst() {
	it.merged.SeekToFirst()
	it.forward = true
	it.findNextVisible()
}

// SeekToLast positions at the last user key.
func (it *dbIter) SeekToLast() {
	it.merged.SeekToLast()
	it.forward = false
	it.findPrevVisible()
}

// Next advances to the next user key.
func (it *dbIter) Next() {
	if !it.Valid() {
		return
	}
	if !it.forward {
		// The stream sits before the current key after a backward
		// scan; jump past every version of the current key first.
		it.merged.SeekGE(keys.Make(it.key, 0, keys.KindDelete))
		it.forward = true
	}
	it.skipUserKey(it.key)
	it.findNextVisible()
}

// Prev moves to the previous user key.
func (it *dbIter) Prev() {
	if !it.Valid() {
		return
	}
	if it.forward {
		// The stream sits at (or within) the current key after a
		// forward scan; jump before every version of it first.
		it.merged.SeekLT(keys.SearchKey(it.key, keys.MaxSeq))
		it.forward = false
	}
	it.findPrevVisible()
}

// Key returns the current user key (valid until the next move).
func (it *dbIter) Key() []byte { return it.key }

// Value returns the current value (valid until the next move).
func (it *dbIter) Value() []byte { return it.value }

// Error returns the first error encountered.
func (it *dbIter) Error() error { return it.err }

// Close releases the iterator and its SuperVersion pin. Safe to call
// more than once. The pin is dropped only after the child iterators
// are closed — it is what keeps their tables alive.
func (it *dbIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	err := it.merged.Close()
	it.db.releaseSV(it.sv)
	it.db.openIters.Add(-1)
	return err
}
