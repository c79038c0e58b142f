package engine

import (
	"xpointdb/internal/cache"
	"xpointdb/internal/clock"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
	"xpointdb/internal/vfs"
)

// tableCache keeps every live SST's Reader open (footer, index and
// filter pinned in memory, as RocksDB's table cache does with
// max_open_files = -1). Concurrent first-opens of the same file are
// coalesced; the wait uses the engine clock's Cond so it parks
// correctly under the simulation kernel.
type tableCache struct {
	fs     vfs.FS
	blocks *cache.Cache // may be nil
	// salt is OR-ed into the file number used for block-cache keys
	// (the engine's tag in its Shared, shifted past any file number).
	// Shards sharing one cache allocate the same small file numbers;
	// the salt keeps their blocks from aliasing.
	salt uint64

	mu      clock.Mutex
	cond    clock.Cond
	readers map[uint64]*sstable.Reader
	loading map[uint64]bool
}

func newTableCache(clk clock.Clock, fs vfs.FS, blocks *cache.Cache, salt uint64) *tableCache {
	mu := clk.NewMutex()
	return &tableCache{
		fs:      fs,
		blocks:  blocks,
		salt:    salt,
		mu:      mu,
		cond:    clk.NewCond(mu),
		readers: make(map[uint64]*sstable.Reader),
		loading: make(map[uint64]bool),
	}
}

// get returns the Reader for file meta, opening it on first use.
func (tc *tableCache) get(meta *manifest.FileMeta) (*sstable.Reader, error) {
	tc.mu.Lock()
	for {
		if r, ok := tc.readers[meta.Num]; ok {
			tc.mu.Unlock()
			return r, nil
		}
		if !tc.loading[meta.Num] {
			tc.loading[meta.Num] = true
			break
		}
		tc.cond.Wait()
	}
	tc.mu.Unlock()

	f, err := tc.fs.Open(manifest.SSTName(meta.Num))
	var r *sstable.Reader
	if err == nil {
		r, err = sstable.NewReader(f, meta.Size, tc.salt|meta.Num, tc.blocks)
		if err != nil {
			f.Close()
		}
	}

	tc.mu.Lock()
	delete(tc.loading, meta.Num)
	if err == nil {
		tc.readers[meta.Num] = r
	}
	tc.cond.Broadcast()
	tc.mu.Unlock()
	return r, err
}

// evict closes and forgets the reader for num and drops its cached
// blocks. Eviction happens only when the file's last version reference
// died (zombie sweep), so no reader snapshot can still be probing it —
// every Get and iterator pins a SuperVersion whose version refs the
// files it may touch.
func (tc *tableCache) evict(num uint64) {
	tc.mu.Lock()
	r := tc.readers[num]
	delete(tc.readers, num)
	tc.mu.Unlock()
	if r != nil {
		r.Close()
	}
	if tc.blocks != nil {
		tc.blocks.EvictFile(tc.salt | num)
	}
}

// close closes every open reader.
func (tc *tableCache) close() {
	tc.mu.Lock()
	readers := tc.readers
	tc.readers = make(map[uint64]*sstable.Reader)
	tc.mu.Unlock()
	for _, r := range readers {
		r.Close()
	}
}
