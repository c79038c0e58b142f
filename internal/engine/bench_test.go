package engine

import (
	"testing"

	"xpointdb/internal/clock"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// BenchmarkOpenCloseEmpty times Open + Close of an empty store at
// DefaultOptions on a fresh MemFS: CURRENT, one MANIFEST, one WAL —
// all small files — plus the engine's own start-up and shutdown.
func BenchmarkOpenCloseEmpty(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
		db, err := Open(DefaultOptions(fs))
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetMemtableHit times a Get answered by the mutable
// memtable, perf collection off: the engine's per-Get fixed cost
// (SuperVersion pin, clock reads, latency histogram) plus one skiplist
// seek over 4,096 entries.
func BenchmarkGetMemtableHit(b *testing.B) {
	db := allocTestDB(b)
	defer db.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			b.Fatal(err)
		}
	}
	benchGets(b, db, n)
}

// BenchmarkGetCachedSST times a Get that misses the (empty) memtable
// and is answered by one Level-0 table whose blocks are all in the
// block cache: table-cache hit, Bloom probe, index and data block
// seeks — the shape of bench/'s read_hot.
func BenchmarkGetCachedSST(b *testing.B) {
	db := allocTestDB(b)
	defer db.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ { // open the table and fill the block cache
		if _, err := db.Get(testKey(i)); err != nil {
			b.Fatal(err)
		}
	}
	benchGets(b, db, n)
}

func benchGets(b *testing.B, db *DB, n int) {
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = testKey((i * 2654435761) % n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(ks[i%n]); err != nil {
			b.Fatal(err)
		}
	}
}
