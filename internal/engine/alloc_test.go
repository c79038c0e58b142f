package engine

import (
	"fmt"
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
		checkAllocs(t, 1, testing.AllocsPerRun(runs, func() {
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
		}))
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
