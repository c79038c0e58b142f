package engine

import (
	"fmt"
	"runtime"
	"testing"

	"xpointdb/internal/clock"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// allocTestDB opens a store at DefaultOptions with perf collection off
// and the scrubber (the one background reader) disabled, so heap
// allocations counted during a measurement are the operation's own.
func allocTestDB(tb testing.TB) *DB {
	tb.Helper()
	opts := DefaultOptions(vfs.NewMem(storage.New(clock.Real{}, storage.Null())))
	opts.DisableScrub = true
	db, err := Open(opts)
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	return db
}

// TestAllocBudgets pins heap allocations per operation on the paths
// whose fixed cost the paper's fast-device regime exposes. A budget
// that is exceeded is a regression; a path that got cheaper lowers its
// budget.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const runs = 2000

	t.Run("get/memtable-hit", func(t *testing.T) {
		db := allocTestDB(t)
		defer db.Close()
		key := []byte("alloc-key")
		if err := db.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		checkAllocs(t, 0, testing.AllocsPerRun(runs, func() {
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
		}))
	})

	t.Run("get/cached-block-sst", func(t *testing.T) {
		db := allocTestDB(t)
		defer db.Close()
		for i := 0; i < 100; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		key := testKey(42)
		if _, err := db.Get(key); err != nil { // opens the table, caches the block
			t.Fatal(err)
		}
		checkAllocs(t, 0, testing.AllocsPerRun(runs, func() {
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
		}))
	})

	// A scan's fixed cost: building the iterator tree and its seek.
	// Stepping through entries allocates nothing: keys and values are
	// copied into the iterator's own buffers.
	t.Run("scan/steady-state", func(t *testing.T) {
		db := allocTestDB(t)
		defer db.Close()
		const n, scanLen = 1000, 25
		val := make([]byte, 1<<10) // 4 entries a block: a scan crosses 6 or 7
		for i := 0; i < n; i++ {
			if err := db.Put(testKey(i), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		start := testKey(n / 2)
		scan := func() {
			it, err := db.NewIter()
			if err != nil {
				t.Fatal(err)
			}
			it.SeekGE(start)
			for j := 0; j < scanLen; j++ {
				if !it.Valid() {
					t.Fatalf("scan ended after %d entries: %v", j, it.Error())
				}
				it.Next()
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		}
		scan() // opens the table, caches the blocks
		checkAllocs(t, 11, testing.AllocsPerRun(runs, scan))
	})

	t.Run("put", func(t *testing.T) {
		db := allocTestDB(t)
		defer db.Close()
		ks := make([][]byte, runs+1)
		for i := range ks {
			ks[i] = []byte(fmt.Sprintf("put-%08d", i))
		}
		val := make([]byte, 100)
		i := 0
		checkAllocs(t, 13, testing.AllocsPerRun(runs, func() {
			if err := db.Put(ks[i], val); err != nil {
				t.Fatal(err)
			}
			i++
		}))
	})

	// Compaction's input bytes are read into reused windows and served
	// in place, and MemFS reuses the chunks of the files compaction
	// drops, so a steady round of flush and full compaction allocates
	// far less than the bytes it moves. The overwrites are not counted:
	// a committed batch's buffer is the memtable's copy of the data.
	t.Run("compaction/steady-state", func(t *testing.T) {
		db := allocTestDB(t)
		defer db.Close()
		const n = 8000
		val := make([]byte, 1<<10)
		var userBytes, allocated uint64
		var before, after runtime.MemStats
		round := func() {
			userBytes = 0
			for i := 0; i < n; i++ {
				k := testKey(i)
				if err := db.Put(k, val); err != nil {
					t.Fatal(err)
				}
				userBytes += uint64(len(k) + len(val))
			}
			runtime.ReadMemStats(&before)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactRange(nil, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocated = after.TotalAlloc - before.TotalAlloc
		}
		round()
		round()
		round()
		const budget = 0.5
		if perByte := float64(allocated) / float64(userBytes); perByte > budget {
			t.Errorf("%.2f B allocated per user byte, budget %.1f", perByte, budget)
		} else {
			t.Logf("%.2f B allocated per user byte (budget %.1f)", perByte, budget)
		}
	})

	t.Run("open-close/empty", func(t *testing.T) {
		checkAllocs(t, 99, testing.AllocsPerRun(50, func() {
			fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
			db, err := Open(DefaultOptions(fs))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}))
	})
}

func checkAllocs(t *testing.T, budget int, got float64) {
	t.Helper()
	if got > float64(budget) {
		t.Errorf("%.1f allocations per op, budget %d", got, budget)
	} else {
		t.Logf("%.1f allocations per op (budget %d)", got, budget)
	}
}
