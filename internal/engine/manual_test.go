package engine

import "testing"

func TestCompactRangePushesDataDown(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
		o.TargetFileSize = 32 << 10
		o.BaseLevelBytes = 1 << 30 // keep background size-compactions out of the way
		o.L0CompactionTrigger = 100
	})
	defer db.Close()

	const n = 1500
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatalf("CompactRange: %v", err)
	}
	if l0 := db.NumLevelFiles(0); l0 != 0 {
		t.Fatalf("L0 still has %d files after full CompactRange:\n%s", l0, db.DebugLayout())
	}
	deep := 0
	for l := 1; l < 7; l++ {
		deep += db.NumLevelFiles(l)
	}
	if deep == 0 {
		t.Fatalf("no files below L0:\n%s", db.DebugLayout())
	}
	for i := 0; i < n; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d after CompactRange: %v", i, err)
		}
	}
}

func TestCompactRangePartial(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
		o.L0CompactionTrigger = 100
	})
	defer db.Close()
	for i := 0; i < 600; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Compact only a sub-range; data outside it must stay readable.
	if err := db.CompactRange(testKey(100), testKey(200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i += 7 {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
}

func TestCompactRangeDropsTombstones(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
		o.L0CompactionTrigger = 100
	})
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put(testKey(i), testValue(i))
	}
	for i := 0; i < 500; i++ {
		db.Delete(testKey(i))
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	// Everything deleted and fully compacted: tree should be tiny
	// (tombstones elided at the base level).
	var total int64
	for l := 0; l < 7; l++ {
		total += db.LevelBytes(l)
	}
	if total > 64<<10 {
		t.Fatalf("tree still holds %d bytes of deleted data:\n%s", total, db.DebugLayout())
	}
	for i := 0; i < 500; i += 17 {
		if _, err := db.Get(testKey(i)); err != ErrNotFound {
			t.Fatalf("deleted key %d: %v", i, err)
		}
	}
}
