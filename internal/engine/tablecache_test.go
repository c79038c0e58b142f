package engine

import (
	"sync"
	"testing"

	"xpointdb/internal/clock"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// TestTableCacheCoalescesFirstOpens: concurrent probes of a table that
// is not open yet share one Reader — the first open is coalesced and
// the rest are lock-free hits — and evict forgets it, so the next get
// opens the file again.
func TestTableCacheCoalescesFirstOpens(t *testing.T) {
	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	f, err := fs.Create(manifest.SSTName(7))
	if err != nil {
		t.Fatal(err)
	}
	b := sstable.NewBuilder(f, sstable.DefaultBuilderOptions())
	if err := b.Add(keys.Make([]byte("k"), 1, keys.KindSet), []byte("v")); err != nil {
		t.Fatal(err)
	}
	size, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	meta := &manifest.FileMeta{Num: 7, Size: size}
	tc := newTableCache(clock.Real{}, fs, nil, 0)
	defer tc.close()

	readers := make([]*sstable.Reader, 8)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := tc.get(meta)
			if err != nil {
				t.Errorf("get: %v", err)
			}
			readers[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range readers {
		if r == nil || r != readers[0] {
			t.Fatalf("reader %d = %p, want the one shared reader %p", i, r, readers[0])
		}
	}

	tc.evict(meta.Num)
	r, err := tc.get(meta)
	if err != nil {
		t.Fatalf("get after evict: %v", err)
	}
	if r == readers[0] {
		t.Fatal("evict kept the reader")
	}
}
