package engine

import (
	"sync"

	"xpointdb/internal/cache"
	"xpointdb/internal/clock"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
	"xpointdb/internal/vfs"
)

// tableCache keeps every live SST's Reader open (footer, index and
// filter pinned in memory, as RocksDB's table cache does with
// max_open_files = -1). A hit — every probe after a table's first — is
// one lock-free map load. The mutex only coalesces concurrent first
// opens of the same file, whose wait uses the engine clock's Cond so it
// parks correctly under the simulation kernel, and serialises them
// against evict and close.
type tableCache struct {
	fs     vfs.FS
	blocks *cache.Cache // may be nil
	// salt is OR-ed into the file number used for block-cache keys
	// (the engine's tag in its Shared, shifted past any file number).
	// Shards sharing one cache allocate the same small file numbers;
	// the salt keeps their blocks from aliasing.
	salt uint64

	readers sync.Map // file number → *sstable.Reader

	mu      clock.Mutex
	cond    clock.Cond
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
		loading: make(map[uint64]bool),
	}
}

// get returns the Reader for file meta, opening it on first use.
func (tc *tableCache) get(meta *manifest.FileMeta) (*sstable.Reader, error) {
	if r, ok := tc.readers.Load(meta.Num); ok {
		return r.(*sstable.Reader), nil
	}
	tc.mu.Lock()
	for {
		if r, ok := tc.readers.Load(meta.Num); ok {
			tc.mu.Unlock()
			return r.(*sstable.Reader), nil
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
		tc.readers.Store(meta.Num, r)
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
	r, ok := tc.readers.LoadAndDelete(num)
	tc.mu.Unlock()
	if ok {
		r.(*sstable.Reader).Close()
	}
	if tc.blocks != nil {
		tc.blocks.EvictFile(tc.salt | num)
	}
}

// close closes every open reader.
func (tc *tableCache) close() {
	var readers []*sstable.Reader
	tc.mu.Lock()
	tc.readers.Range(func(num, r any) bool {
		tc.readers.Delete(num)
		readers = append(readers, r.(*sstable.Reader))
		return true
	})
	tc.mu.Unlock()
	for _, r := range readers {
		r.Close()
	}
}
