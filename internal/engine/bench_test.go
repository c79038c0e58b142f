package engine

import (
	"runtime"
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
	db := cachedSSTDB(b)
	defer db.Close()
	benchGets(b, db, cachedSSTKeys)
}

// BenchmarkGetCachedSSTParallel is BenchmarkGetCachedSST from
// GOMAXPROCS goroutines at once: the per-Get fixed cost when Gets on
// different cores share the engine's accounting, as in read_hot.
func BenchmarkGetCachedSSTParallel(b *testing.B) {
	db := cachedSSTDB(b)
	defer db.Close()
	ks := benchKeys(cachedSSTKeys)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := db.Get(ks[i%len(ks)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

const cachedSSTKeys = 4096

// cachedSSTDB returns a store, scrubber off, whose cachedSSTKeys keys
// sit in one flushed Level-0 table with every block in the block cache.
func cachedSSTDB(b *testing.B) *DB {
	db := allocTestDB(b)
	for i := 0; i < cachedSSTKeys; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < cachedSSTKeys; i++ { // open the table and fill the block cache
		if _, err := db.Get(testKey(i)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// benchKeys returns keys 0..n-1 in a scattered order.
func benchKeys(n int) [][]byte {
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = testKey((i * 2654435761) % n)
	}
	return ks
}

func benchGets(b *testing.B, db *DB, n int) {
	ks := benchKeys(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(ks[i%n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompaction times one L0→L1 compaction of a fixed store on a
// null-device MemFS: four L0 tables of 2,000 fresh 1 KiB values each
// merged with the L1 the previous round left, which holds the same
// 8,000 keys — 16,000 entries in, 8,000 out. The overwrites and
// flushes that rebuild L0 between rounds are not timed. It reports
// ns and bytes allocated per compacted entry beside allocs/op.
func BenchmarkCompaction(b *testing.B) {
	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	opts := DefaultOptions(fs)
	opts.DisableScrub = true
	opts.L0CompactionTrigger = 8 // only the benchmark compacts L0
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const files, perFile = 4, 2000
	val := make([]byte, 1<<10)
	fillL0 := func() {
		for f := 0; f < files; f++ {
			for i := f * perFile; i < (f+1)*perFile; i++ {
				if err := db.Put(testKey(i), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	compact := func() {
		if err := db.compactLevelRange(0, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	fillL0() // the first round only builds L1
	compact()

	var entries, allocated uint64
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillL0()
		merged := db.metrics.CompactionEntriesMerged.Load()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		compact()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		entries += uint64(db.metrics.CompactionEntriesMerged.Load() - merged)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
	b.ReportMetric(float64(allocated)/float64(entries), "B/entry")
}
