// Package memtable implements the in-memory write buffer: a thin
// layer over the concurrent skiplist that speaks (user key, sequence,
// kind) and tracks approximate memory usage against a byte budget.
//
// The paper's Finding #2/Analysis #2 hinge on memtable size: a larger
// memtable yields fewer, larger Level-0 files (good for reads) but a
// deeper skiplist and therefore costlier inserts (bad for writes).
package memtable

import (
	"xpointdb/internal/keys"
	"xpointdb/internal/skiplist"
)

// Memtable buffers recent writes in a skiplist keyed by internal key.
type Memtable struct {
	list *skiplist.SkipList
	// budget is the soft size limit; the engine switches the
	// memtable to immutable once exceeded.
	budget int64
}

// New returns an empty memtable with the given byte budget.
func New(budget int64) *Memtable {
	return &Memtable{list: skiplist.New(), budget: budget}
}

// Add inserts an entry. Safe for concurrent use (CAS skiplist insert).
// value is retained, not copied. Insert cost grows with log(table
// size) — the effect behind paper Figure 12; the engine charges the
// CPU cost model for it from Count.
func (m *Memtable) Add(seq uint64, kind keys.Kind, userKey, value []byte) {
	m.list.Insert(keys.Make(userKey, seq, kind), value)
}

// Get looks up the newest version of userKey visible at snapshot seq.
// Returns:
//   - value, true, false — found a live value
//   - nil, true, true — found a tombstone (key deleted)
//   - nil, false, _ — key not in this memtable
//
// cmps reports the key comparisons performed, for CPU cost accounting.
func (m *Memtable) Get(userKey []byte, seq uint64) (value []byte, found, deleted bool, cmps int) {
	var buf [64]byte
	it := m.list.NewIterator()
	it.SeekGE(keys.AppendSearchKey(buf[:0], userKey, seq))
	cmps = it.Cmps
	if !it.Valid() {
		return nil, false, false, cmps
	}
	ik := it.Key()
	if keys.CompareUserKeys(keys.UserKey(ik), userKey) != 0 {
		return nil, false, false, cmps
	}
	_, kind := keys.Trailer(ik)
	if kind == keys.KindDelete {
		return nil, true, true, cmps
	}
	return it.Value(), true, false, cmps
}

// ApproximateSize returns the approximate memory footprint in bytes.
func (m *Memtable) ApproximateSize() int64 { return m.list.ApproximateSize() }

// Budget returns the configured byte budget.
func (m *Memtable) Budget() int64 { return m.budget }

// Full reports whether the memtable has reached its budget.
func (m *Memtable) Full() bool { return m.list.ApproximateSize() >= m.budget }

// Empty reports whether no entries have been added.
func (m *Memtable) Empty() bool { return m.list.Empty() }

// Count returns the number of entries.
func (m *Memtable) Count() int64 { return m.list.Count() }

// Iter walks the memtable in internal-key order.
type Iter struct {
	it *skiplist.Iterator
}

// NewIter returns an iterator over the memtable.
func (m *Memtable) NewIter() *Iter { return &Iter{it: m.list.NewIterator()} }

// Valid reports whether the iterator is positioned at an entry.
func (i *Iter) Valid() bool { return i.it.Valid() }

// Key returns the current internal key.
func (i *Iter) Key() []byte { return i.it.Key() }

// Value returns the current value.
func (i *Iter) Value() []byte { return i.it.Value() }

// Next advances the iterator.
func (i *Iter) Next() { i.it.Next() }

// SeekToFirst positions at the first entry.
func (i *Iter) SeekToFirst() { i.it.SeekToFirst() }

// SeekGE positions at the first entry with internal key ≥ target.
func (i *Iter) SeekGE(target []byte) { i.it.SeekGE(target) }

// SeekLT positions at the last entry with internal key < target.
func (i *Iter) SeekLT(target []byte) { i.it.SeekLT(target) }

// SeekToLast positions at the last entry.
func (i *Iter) SeekToLast() { i.it.SeekToLast() }

// Prev moves to the previous entry.
func (i *Iter) Prev() { i.it.Prev() }

// Error is always nil: a memtable is in memory and cannot fail a read.
func (i *Iter) Error() error { return nil }

// Close is a no-op; the iterator holds nothing to release.
func (i *Iter) Close() error { return nil }
