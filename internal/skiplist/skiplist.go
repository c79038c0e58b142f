// Package skiplist implements the concurrent skiplist underlying the
// memtable, modeled on RocksDB's InlineSkipList: lock-free CAS inserts,
// wait-free reads. Concurrent inserts are what make the engine's
// pipelined write path (paper Algorithm 2) able to apply batches from
// several memtable writers in parallel.
//
// Keys are internal keys (package keys) and are unique by construction
// (every write gets a fresh sequence number), so Insert never sees a
// duplicate.
package skiplist

import (
	"sync/atomic"

	"xpointdb/internal/keys"
)

const (
	maxHeight = 12
	// branching controls tower height distribution: a node reaches
	// level h+1 with probability 1/branching.
	branching = 4
)

type node struct {
	key   []byte
	value []byte
	// next holds one atomic forward pointer per level, length equals
	// the node's height.
	next []atomic.Pointer[node]
}

func newNode(key, value []byte, height int) *node {
	return &node{key: key, value: value, next: make([]atomic.Pointer[node], height)}
}

// SkipList is a concurrent ordered map from internal key to value.
// Create one with New.
type SkipList struct {
	head   *node
	height atomic.Int32 // current max tower height in use
	size   atomic.Int64 // approximate memory footprint in bytes
	count  atomic.Int64
	// rngState seeds a lock-free splitmix64 stream for tower heights.
	rngState atomic.Uint64
}

// New returns an empty skiplist.
func New() *SkipList {
	s := &SkipList{head: newNode(nil, nil, maxHeight)}
	s.height.Store(1)
	s.rngState.Store(0x9e3779b97f4a7c15)
	return s
}

// nodeOverhead approximates per-node bookkeeping for memory accounting.
const nodeOverhead = 64

// Insert adds an internal key and value. The key must not already be
// present. Safe for concurrent use with other Inserts and readers. The
// slices are retained; callers must not modify them afterwards. It
// returns the number of key comparisons performed, as findGE does.
//
// The search is RocksDB InlineSkipList's splice: one descent from the
// top level records, for every level, the pair the key falls between;
// the node is then linked bottom-up from those recorded predecessors.
// Nodes are never unlinked, so a recorded prev stays a predecessor of
// key on its level whatever other inserts do, and a lost CAS only has
// to walk forward from it — never from head again.
func (s *SkipList) Insert(key, value []byte) (cmps int) {
	height := s.randomHeight()
	// Raise the list height first, so that the descent below starts
	// at or above every level the new node will be linked on; levels
	// nobody has used yet are simply head → nil.
	for {
		h := s.height.Load()
		if height <= int(h) || s.height.CompareAndSwap(h, int32(height)) {
			break
		}
	}

	var prev, next [maxHeight]*node
	before := s.head
	for level := int(s.height.Load()) - 1; level >= 0; level-- {
		prev[level], next[level] = findSpliceForLevel(key, before, level, &cmps)
		before = prev[level]
	}

	// Bottom-up, so that a node reachable on a level is already linked
	// on every level below it: a reader (or the descent above) that
	// steps down from it always finds a valid forward pointer.
	x := newNode(key, value, height)
	for level := 0; level < height; level++ {
		for {
			x.next[level].Store(next[level])
			if prev[level].next[level].CompareAndSwap(next[level], x) {
				break
			}
			// Lost a race at this level: something was linked between
			// prev and next. Re-search this level only, from prev.
			prev[level], next[level] = findSpliceForLevel(key, prev[level], level, &cmps)
		}
	}
	s.size.Add(int64(len(key)+len(value)) + nodeOverhead)
	s.count.Add(1)
	return cmps
}

// findSpliceForLevel walks level starting at start, whose key must be
// below key (or which is head), and returns the pair (prev, next) such
// that prev.key < key ≤ next.key at that level, adding the key
// comparisons it made to *cmps.
func findSpliceForLevel(key []byte, start *node, level int, cmps *int) (prev, next *node) {
	prev = start
	for {
		next = prev.next[level].Load()
		if next == nil {
			return prev, nil
		}
		*cmps++
		if keys.Compare(next.key, key) >= 0 {
			return prev, next
		}
		prev = next
	}
}

// findGE returns the first node with key ≥ target, and the number of
// key comparisons performed (for the CPU cost model).
func (s *SkipList) findGE(target []byte) (*node, int) {
	cmps := 0
	x := s.head
	level := int(s.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil {
			cmps++
			if keys.Compare(next.key, target) < 0 {
				x = next
				continue
			}
		}
		if level == 0 {
			return next, cmps
		}
		level--
	}
}

// findLT returns the last node with key < target (nil if none), and
// the comparison count.
func (s *SkipList) findLT(target []byte) (*node, int) {
	cmps := 0
	x := s.head
	level := int(s.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil {
			cmps++
			if keys.Compare(next.key, target) < 0 {
				x = next
				continue
			}
		}
		if level == 0 {
			if x == s.head {
				return nil, cmps
			}
			return x, cmps
		}
		level--
	}
}

// findLast returns the last node in the list (nil if empty).
func (s *SkipList) findLast() *node {
	x := s.head
	level := int(s.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil {
			x = next
			continue
		}
		if level == 0 {
			if x == s.head {
				return nil
			}
			return x
		}
		level--
	}
}

// Get returns the value stored under the exact internal key, with ok
// reporting presence.
func (s *SkipList) Get(key []byte) (value []byte, ok bool) {
	n, _ := s.findGE(key)
	if n != nil && keys.Compare(n.key, key) == 0 {
		return n.value, true
	}
	return nil, false
}

// Empty reports whether the list has no entries.
func (s *SkipList) Empty() bool { return s.count.Load() == 0 }

// Count returns the number of entries.
func (s *SkipList) Count() int64 { return s.count.Load() }

// ApproximateSize returns the approximate memory footprint in bytes.
func (s *SkipList) ApproximateSize() int64 { return s.size.Load() }

func (s *SkipList) randomHeight() int {
	// splitmix64 on an atomic counter: thread-safe without locks.
	v := s.rngState.Add(0x9e3779b97f4a7c15)
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31

	h := 1
	for h < maxHeight && v%branching == 0 {
		h++
		v /= branching
	}
	return h
}

// Iterator walks the list in ascending internal-key order. It is valid
// to use concurrently with inserts; an iterator sees entries inserted
// before (and possibly during) the walk.
type Iterator struct {
	list *SkipList
	node *node
	// Cmps accumulates key comparisons performed by seeks, feeding
	// the CPU cost model.
	Cmps int
}

// NewIterator returns an iterator positioned before the first entry.
func (s *SkipList) NewIterator() *Iterator { return &Iterator{list: s} }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.node != nil }

// Key returns the current internal key. Valid must be true.
func (it *Iterator) Key() []byte { return it.node.key }

// Value returns the current value. Valid must be true.
func (it *Iterator) Value() []byte { return it.node.value }

// Next advances to the next entry.
func (it *Iterator) Next() {
	it.node = it.node.next[0].Load()
}

// SeekToFirst positions at the first entry.
func (it *Iterator) SeekToFirst() {
	it.node = it.list.head.next[0].Load()
}

// SeekGE positions at the first entry with key ≥ target.
func (it *Iterator) SeekGE(target []byte) {
	n, cmps := it.list.findGE(target)
	it.node = n
	it.Cmps += cmps
}

// SeekLT positions at the last entry with key < target.
func (it *Iterator) SeekLT(target []byte) {
	n, cmps := it.list.findLT(target)
	it.node = n
	it.Cmps += cmps
}

// SeekToLast positions at the last entry.
func (it *Iterator) SeekToLast() {
	it.node = it.list.findLast()
}

// Prev moves to the previous entry. A singly-linked skiplist steps
// backward with an O(log n) re-seek, as in LevelDB.
func (it *Iterator) Prev() {
	if it.node == nil {
		return
	}
	it.SeekLT(it.node.key)
}
