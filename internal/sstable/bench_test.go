package sstable

import (
	"fmt"
	"testing"

	"xpointdb/internal/cache"
	"xpointdb/internal/keys"
)

const benchEntries = 64 << 10

// BenchmarkReaderGetCached times one Reader.Get over a 64k-entry
// table whose data blocks are all in the block cache: index seek,
// cache hit, data block seek — the SST half of a cached Get.
func BenchmarkReaderGetCached(b *testing.B) {
	r, _ := buildTable(b, benchEntries, cache.New(64<<20), DefaultBuilderOptions())
	defer r.Close()
	targets := make([][]byte, benchEntries)
	for i := range targets {
		targets[i] = keys.SearchKey([]byte(fmt.Sprintf("key-%06d", (i*2654435761)%benchEntries)), keys.MaxSeq)
		if _, _, _, found, err := r.Get(targets[i]); !found || err != nil { // warm the cache
			b.Fatalf("Get %d: found=%v err=%v", i, found, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := r.Get(targets[i%benchEntries]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIterScan times a full forward scan of a 64k-entry
// table through the two-level iterator, reported per entry: block
// steps and entry decodes, no block reads (cached).
func BenchmarkTableIterScan(b *testing.B) {
	r, _ := buildTable(b, benchEntries, cache.New(64<<20), DefaultBuilderOptions())
	defer r.Close()
	scan := func() int {
		it := r.NewIter()
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
		return n
	}
	if n := scan(); n != benchEntries { // warm the cache
		b.Fatalf("scanned %d entries, want %d", n, benchEntries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchEntries {
		scan()
	}
}
