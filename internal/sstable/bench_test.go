package sstable

import (
	"fmt"
	"testing"

	"xpointdb/internal/cache"
	"xpointdb/internal/keys"
	"xpointdb/internal/vfs"
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

// BenchmarkTableIterScanCold times a short scan — NewIter, SeekGE to a
// random key, 25 Next, Close — over a 64k-entry table with 256-byte
// values whose block cache holds 1/16 of it, so most blocks come from
// the file: a scan spans two or three blocks, so it reads ahead.
// reads/op counts ReadAt calls.
func BenchmarkTableIterScanCold(b *testing.B) {
	const scanLen = 25
	img, o := raImage(b, benchEntries, 256)
	fs := newFS()
	f, err := fs.Create("t.sst")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Write(img); err != nil {
		b.Fatal(err)
	}
	f.Sync()
	f.Close()
	rf, err := fs.Open("t.sst")
	if err != nil {
		b.Fatal(err)
	}
	cf := &countingFile{File: rf}
	r, err := NewReader(cf, int64(len(img)), 1, cache.New(int64(len(img))/16))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	targets := make([][]byte, benchEntries)
	for i := range targets {
		targets[i] = o.keys[(i*2654435761)%(benchEntries-scanLen)]
	}
	cf.reads = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := r.NewIter()
		it.SeekGE(targets[i%benchEntries])
		for j := 0; j < scanLen && it.Valid(); j++ {
			it.Next()
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cf.reads)/float64(b.N), "reads/op")
}

// countingFile counts the ReadAt calls and bytes a Reader makes.
// failRefill, when set, is returned once, by the first ReadAt longer
// than one 4 KiB block: a read-ahead refill.
type countingFile struct {
	vfs.File
	reads, bytes int
	failRefill   error
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads++
	f.bytes += len(p)
	if f.failRefill != nil && len(p) > 8<<10 {
		err := f.failRefill
		f.failRefill = nil
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

// raOracle is what a table built by raImage holds, in order.
type raOracle struct {
	keys, values [][]byte
}

// raImage builds an n-entry table with valueLen-byte values and 4 KiB
// blocks in memory, and returns its bytes and its entries.
func raImage(tb testing.TB, n, valueLen int) ([]byte, raOracle) {
	tb.Helper()
	f := &byteFile{}
	b := NewBuilder(f, DefaultBuilderOptions())
	var o raOracle
	for i := 0; i < n; i++ {
		k := ik(fmt.Sprintf("key-%06d", i), uint64(i+1))
		v := []byte(fmt.Sprintf("value-%06d-", i))
		for len(v) < valueLen {
			v = append(v, byte('a'+(i+len(v))%26))
		}
		if err := b.Add(k, v); err != nil {
			tb.Fatal(err)
		}
		o.keys = append(o.keys, k)
		o.values = append(o.values, v)
	}
	if _, err := b.Finish(); err != nil {
		tb.Fatal(err)
	}
	return f.data, o
}
