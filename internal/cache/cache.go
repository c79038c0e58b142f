// Package cache implements the sharded LRU block cache. Together with
// the Bloom filters it stands in for both RocksDB's block cache and
// the OS page cache: in the simulation, every cache miss is a charged
// device read (the paper's configuration — 8 GB RAM against 100 GB of
// data — makes most reads go to the device, which is exactly the
// regime the block cache size knob lets experiments reproduce).
package cache

import "sync"

const numShards = 16

// Cache is a fixed-capacity sharded LRU cache of data blocks keyed by
// (file number, block offset).
//
// Each shard keeps exact LRU order: the simulation charges a device
// read for every miss, so which block a full shard evicts is part of
// the modelled read path. The order is an intrusive doubly linked
// list — each entry carries its own links — and a shard counts its
// own hits and misses under its lock, so a hit touches one lock and
// no shared counter.
type Cache struct {
	shards [numShards]shard
}

type blockKey struct {
	fileNum uint64
	offset  uint64
}

type entry struct {
	key        blockKey
	data       []byte
	prev, next *entry // LRU neighbours: prev is more recent
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	m        map[blockKey]*entry
	// lru is the list's sentinel: lru.next is the most recent entry,
	// lru.prev the least; an empty list links lru to itself.
	lru    entry
	hits   int64
	misses int64
}

// New returns a cache holding at most capacity bytes of block data.
// A capacity ≤ 0 yields a cache that stores nothing.
func New(capacity int64) *Cache {
	c := &Cache{}
	per := capacity / numShards
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		s.m = make(map[blockKey]*entry)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	return c
}

func (c *Cache) shard(k blockKey) *shard {
	h := k.fileNum*0x9e3779b97f4a7c15 + k.offset
	return &c.shards[h%numShards]
}

// unlink takes e out of the LRU list.
func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront links e in as the most recent entry.
func (s *shard) pushFront(e *entry) {
	e.prev = &s.lru
	e.next = s.lru.next
	e.next.prev = e
	s.lru.next = e
}

// moveToFront makes e the most recent entry.
func (s *shard) moveToFront(e *entry) {
	if s.lru.next != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// Get returns the cached block, if present.
func (c *Cache) Get(fileNum, offset uint64) ([]byte, bool) {
	k := blockKey{fileNum, offset}
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.m[k]
	var data []byte
	if ok {
		s.moveToFront(e)
		// Read under the lock: a concurrent Insert of the same key
		// reassigns entry.data.
		data = e.data
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return data, ok
}

// Insert adds (or replaces) a block, evicting LRU entries to fit. The
// data slice is retained; callers must treat it as immutable.
func (c *Cache) Insert(fileNum, offset uint64, data []byte) {
	k := blockKey{fileNum, offset}
	s := c.shard(k)
	size := int64(len(data))
	if size > s.capacity {
		return // would never fit
	}
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		s.used += size - int64(len(e.data))
		e.data = data
		s.moveToFront(e)
	} else {
		e := &entry{key: k, data: data}
		s.m[k] = e
		s.pushFront(e)
		s.used += size
	}
	for s.used > s.capacity {
		back := s.lru.prev
		if back == &s.lru {
			break
		}
		s.unlink(back)
		delete(s.m, back.key)
		s.used -= int64(len(back.data))
	}
	s.mu.Unlock()
}

// Admit caches a copy of data if its shard holds no entry for the
// block and has room for it without evicting anything, and reports
// whether it did. A scan's read-ahead admits its blocks this way, so
// it fills free space but never pushes out what point reads cached.
func (c *Cache) Admit(fileNum, offset uint64, data []byte) bool {
	k := blockKey{fileNum, offset}
	s := c.shard(k)
	size := int64(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; ok || s.used+size > s.capacity {
		return false
	}
	e := &entry{key: k, data: append([]byte(nil), data...)}
	s.m[k] = e
	s.pushFront(e)
	s.used += size
	return true
}

// EvictFile drops every cached block of fileNum (called when an SST is
// deleted after compaction).
func (c *Cache) EvictFile(fileNum uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.m {
			if k.fileNum == fileNum {
				s.unlink(e)
				s.used -= int64(len(e.data))
				delete(s.m, k)
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}
