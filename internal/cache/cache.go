// Package cache implements the sharded LRU block cache. Together with
// the Bloom filters it stands in for both RocksDB's block cache and
// the OS page cache: in the simulation, every cache miss is a charged
// device read (the paper's configuration — 8 GB RAM against 100 GB of
// data — makes most reads go to the device, which is exactly the
// regime the block cache size knob lets experiments reproduce).
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

const numShards = 16

// Cache is a fixed-capacity sharded LRU cache of data blocks keyed by
// (file number, block offset).
type Cache struct {
	shards [numShards]shard
	hits   atomic.Int64
	misses atomic.Int64
}

type blockKey struct {
	fileNum uint64
	offset  uint64
}

type entry struct {
	key  blockKey
	data []byte
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	m        map[blockKey]*list.Element
	lru      *list.List // front = most recent
}

// New returns a cache holding at most capacity bytes of block data.
// A capacity ≤ 0 yields a cache that stores nothing.
func New(capacity int64) *Cache {
	c := &Cache{}
	per := capacity / numShards
	for i := range c.shards {
		c.shards[i] = shard{
			capacity: per,
			m:        make(map[blockKey]*list.Element),
			lru:      list.New(),
		}
	}
	return c
}

func (c *Cache) shard(k blockKey) *shard {
	h := k.fileNum*0x9e3779b97f4a7c15 + k.offset
	return &c.shards[h%numShards]
}

// Get returns the cached block, if present.
func (c *Cache) Get(fileNum, offset uint64) ([]byte, bool) {
	k := blockKey{fileNum, offset}
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.m[k]
	var data []byte
	if ok {
		s.lru.MoveToFront(el)
		// Read under the lock: a concurrent Insert of the same key
		// reassigns entry.data.
		data = el.Value.(*entry).data
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return data, true
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
	if el, ok := s.m[k]; ok {
		old := el.Value.(*entry)
		s.used += size - int64(len(old.data))
		old.data = data
		s.lru.MoveToFront(el)
	} else {
		s.m[k] = s.lru.PushFront(&entry{key: k, data: data})
		s.used += size
	}
	for s.used > s.capacity {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.m, e.key)
		s.used -= int64(len(e.data))
	}
	s.mu.Unlock()
}

// EvictFile drops every cached block of fileNum (called when an SST is
// deleted after compaction).
func (c *Cache) EvictFile(fileNum uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, el := range s.m {
			if k.fileNum == fileNum {
				s.lru.Remove(el)
				s.used -= int64(len(el.Value.(*entry).data))
				delete(s.m, k)
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
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
