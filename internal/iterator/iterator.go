// Package iterator defines the forward iterator contract shared by
// memtables, SST blocks/tables, levels, and the DB, plus the merging
// and concatenating combinators the read path is assembled from.
package iterator

import (
	"sort"

	"xpointdb/internal/keys"
)

// Iterator walks entries in internal-key order, forward and backward.
// The store-level iterators (engine.DB.NewIter, shardeddb.DB.NewIter
// and their snapshots') have the same contract over user keys: Key is
// a user key and a seek target is one.
//
// The Key and Value slices are only valid until the next call that
// moves the iterator. An iterator starts unpositioned; call one of the
// Seek methods first.
type Iterator interface {
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// SeekGE positions at the first entry with internal key ≥ target.
	SeekGE(target []byte)
	// SeekLT positions at the last entry with internal key < target.
	SeekLT(target []byte)
	// SeekToFirst positions at the first entry.
	SeekToFirst()
	// SeekToLast positions at the last entry.
	SeekToLast()
	// Next advances to the next entry. Valid must be true.
	Next()
	// Prev moves to the previous entry. Valid must be true.
	Prev()
	// Key returns the current internal key.
	Key() []byte
	// Value returns the current value.
	Value() []byte
	// Error returns the first error encountered, if any.
	Error() error
	// Close releases resources. The iterator is unusable afterwards.
	Close() error
}

// Merging merges n child iterators into one ordered stream. Ties on
// identical internal keys cannot occur (sequence numbers are unique),
// but the implementation breaks them by child index for determinism.
//
// It uses a simple loser-free linear scan over children, which for the
// small fan-ins of an LSM read path (≤ a dozen children) is both
// faster and simpler than a heap.
type Merging struct {
	children []Iterator
	current  int // index of the winning child, -1 if exhausted
	// forward records the direction the children are aligned for:
	// true = every child is at its first entry ≥ the merge position,
	// false = at its last entry ≤ it. Switching direction re-seeks
	// the non-winning children, as in LevelDB.
	forward bool
	err     error
}

// NewMerging returns a merging iterator over children. The merging
// iterator owns the children and closes them on Close.
func NewMerging(children ...Iterator) *Merging {
	return &Merging{children: children, current: -1, forward: true}
}

// findSmallest scans children for the smallest current key.
func (m *Merging) findSmallest() {
	m.current = -1
	for i, it := range m.children {
		if err := it.Error(); err != nil && m.err == nil {
			m.err = err
		}
		if !it.Valid() {
			continue
		}
		if m.current < 0 || keys.Compare(it.Key(), m.children[m.current].Key()) < 0 {
			m.current = i
		}
	}
}

// findLargest scans children for the largest current key.
func (m *Merging) findLargest() {
	m.current = -1
	for i, it := range m.children {
		if err := it.Error(); err != nil && m.err == nil {
			m.err = err
		}
		if !it.Valid() {
			continue
		}
		if m.current < 0 || keys.Compare(it.Key(), m.children[m.current].Key()) > 0 {
			m.current = i
		}
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (m *Merging) Valid() bool { return m.current >= 0 && m.err == nil }

// SeekGE positions every child at target and picks the smallest.
func (m *Merging) SeekGE(target []byte) {
	for _, it := range m.children {
		it.SeekGE(target)
	}
	m.forward = true
	m.findSmallest()
}

// SeekLT positions every child before target and picks the largest.
func (m *Merging) SeekLT(target []byte) {
	for _, it := range m.children {
		it.SeekLT(target)
	}
	m.forward = false
	m.findLargest()
}

// SeekToFirst positions every child at its first entry.
func (m *Merging) SeekToFirst() {
	for _, it := range m.children {
		it.SeekToFirst()
	}
	m.forward = true
	m.findSmallest()
}

// SeekToLast positions every child at its last entry.
func (m *Merging) SeekToLast() {
	for _, it := range m.children {
		it.SeekToLast()
	}
	m.forward = false
	m.findLargest()
}

// Next advances the winning child and re-picks. If the children were
// aligned backward, they are first re-aligned forward around the
// current key (internal keys are unique, so exactly the current child
// sits AT the key and is stepped past it).
func (m *Merging) Next() {
	if m.current < 0 {
		return
	}
	if !m.forward {
		key := append([]byte(nil), m.children[m.current].Key()...)
		for i, it := range m.children {
			if i == m.current {
				continue
			}
			it.SeekGE(key)
			if it.Valid() && keys.Compare(it.Key(), key) == 0 {
				it.Next()
			}
		}
		m.forward = true
	}
	m.children[m.current].Next()
	m.findSmallest()
}

// Prev steps the merge backward, re-aligning children if they were
// aligned forward.
func (m *Merging) Prev() {
	if m.current < 0 {
		return
	}
	if m.forward {
		key := append([]byte(nil), m.children[m.current].Key()...)
		for i, it := range m.children {
			if i == m.current {
				continue
			}
			it.SeekLT(key)
		}
		m.forward = false
	}
	m.children[m.current].Prev()
	m.findLargest()
}

// Key returns the current internal key.
func (m *Merging) Key() []byte { return m.children[m.current].Key() }

// Value returns the current value.
func (m *Merging) Value() []byte { return m.children[m.current].Value() }

// Error returns the first child error encountered.
func (m *Merging) Error() error { return m.err }

// Close closes all children, returning the first error.
func (m *Merging) Close() error {
	var first error
	for _, it := range m.children {
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	if first == nil {
		first = m.err
	}
	return first
}

var _ Iterator = (*Merging)(nil)

// Concat chains iterators whose key ranges are disjoint and ordered
// (the files of one L1+ level, the shards of a sharded store). Children
// are opened lazily via the open callback so that a scan touching one
// file does not open them all, and at most one is open at a time: a
// child is closed when the iterator moves off it, and kept when a seek
// lands on it again.
type Concat struct {
	n       int
	open    func(i int) (Iterator, error)
	boundGE func(i int, target []byte) bool // does child i possibly contain ≥ target?

	idx int // current child index
	cur Iterator
	err error
}

// NewConcat returns a concatenating iterator over n ordered, disjoint
// children. open(i) opens child i; boundGE(i, target) must report
// whether child i's largest key is ≥ target (used to find the child a
// seek lands in). It must be monotone in i, false and then true, as it
// is over ordered, disjoint, non-empty children.
func NewConcat(n int, open func(i int) (Iterator, error), boundGE func(i int, target []byte) bool) *Concat {
	return &Concat{n: n, open: open, boundGE: boundGE, idx: -1}
}

// setChild makes child i current, for the caller to position. The open
// child is kept if it is i: every caller seeks it next.
func (c *Concat) setChild(i int) bool {
	if c.cur != nil && c.idx == i {
		return true
	}
	if c.cur != nil {
		if err := c.cur.Close(); err != nil && c.err == nil {
			c.err = err
		}
		c.cur = nil
	}
	if i >= c.n {
		c.idx = c.n
		return false
	}
	it, err := c.open(i)
	if err != nil {
		c.err = err
		return false
	}
	c.cur, c.idx = it, i
	return true
}

// skipForward advances across empty/exhausted children.
func (c *Concat) skipForward() {
	for c.cur != nil && !c.cur.Valid() {
		if err := c.cur.Error(); err != nil && c.err == nil {
			c.err = err
			return
		}
		if !c.setChild(c.idx + 1) {
			return
		}
		c.cur.SeekToFirst()
	}
}

// skipBackward steps back across empty/exhausted children.
func (c *Concat) skipBackward() {
	for c.cur != nil && !c.cur.Valid() {
		if err := c.cur.Error(); err != nil && c.err == nil {
			c.err = err
			return
		}
		if c.idx <= 0 {
			if c.cur != nil {
				if err := c.cur.Close(); err != nil && c.err == nil {
					c.err = err
				}
				c.cur = nil
			}
			c.idx = -1
			return
		}
		if !c.setChild(c.idx - 1) {
			return
		}
		c.cur.SeekToLast()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (c *Concat) Valid() bool { return c.err == nil && c.cur != nil && c.cur.Valid() }

// first returns the first child whose largest key is ≥ target, or n.
// boundGE is monotone over ordered, disjoint children, so a binary
// search finds it in at most ⌈log₂(n+1)⌉ calls.
func (c *Concat) first(target []byte) int {
	return sort.Search(c.n, func(i int) bool { return c.boundGE(i, target) })
}

// SeekGE positions at the first entry ≥ target across all children.
func (c *Concat) SeekGE(target []byte) {
	if !c.setChild(c.first(target)) {
		return
	}
	c.cur.SeekGE(target)
	c.skipForward()
}

// SeekToFirst positions at the first entry of the first child.
func (c *Concat) SeekToFirst() {
	if !c.setChild(0) {
		return
	}
	c.cur.SeekToFirst()
	c.skipForward()
}

// Next advances, rolling over to the next child as needed.
func (c *Concat) Next() {
	if !c.Valid() {
		return
	}
	c.cur.Next()
	c.skipForward()
}

// SeekToLast positions at the last entry of the last child.
func (c *Concat) SeekToLast() {
	if c.n == 0 {
		return
	}
	if !c.setChild(c.n - 1) {
		return
	}
	c.cur.SeekToLast()
	c.skipBackward()
}

// SeekLT positions at the last entry < target across all children.
func (c *Concat) SeekLT(target []byte) {
	// Entries < target live in the first child whose bound is ≥
	// target (the one SeekGE would search) and every child before it.
	i := c.first(target)
	if i >= c.n {
		// All children are entirely < target.
		c.SeekToLast()
		return
	}
	if !c.setChild(i) {
		return
	}
	c.cur.SeekLT(target)
	c.skipBackward()
}

// Prev steps backward, rolling to earlier children as needed.
func (c *Concat) Prev() {
	if !c.Valid() {
		return
	}
	c.cur.Prev()
	c.skipBackward()
}

// Key returns the current internal key.
func (c *Concat) Key() []byte { return c.cur.Key() }

// Value returns the current value.
func (c *Concat) Value() []byte { return c.cur.Value() }

// Error returns the first error encountered.
func (c *Concat) Error() error { return c.err }

// Close closes the open child.
func (c *Concat) Close() error {
	if c.cur != nil {
		if err := c.cur.Close(); err != nil && c.err == nil {
			c.err = err
		}
		c.cur = nil
	}
	return c.err
}

var _ Iterator = (*Concat)(nil)
