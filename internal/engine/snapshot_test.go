package engine

import (
	"fmt"
	"testing"
	"time"
)

func TestSnapshotIsolatesReads(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	db.Put([]byte("k"), []byte("v1"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("v2"))
	db.Put([]byte("new"), []byte("x"))

	v, err := snap.Get([]byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("snapshot Get = %q, %v", v, err)
	}
	if _, err := snap.Get([]byte("new")); err != ErrNotFound {
		t.Fatalf("snapshot sees later key: %v", err)
	}
	// Live reads see the new state.
	v, err = db.Get([]byte("k"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("live Get = %q, %v", v, err)
	}
}

func TestSnapshotSeesThroughDelete(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	db.Put([]byte("k"), []byte("alive"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Delete([]byte("k"))

	if _, err := db.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("live read after delete: %v", err)
	}
	v, err := snap.Get([]byte("k"))
	if err != nil || string(v) != "alive" {
		t.Fatalf("snapshot read after delete = %q, %v", v, err)
	}
}

func TestSnapshotSurvivesFlushAndCompaction(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
		o.TargetFileSize = 32 << 10
		o.BaseLevelBytes = 64 << 10
	})
	defer db.Close()

	const key = "pinned"
	db.Put([]byte(key), []byte("old-version"))
	snap := db.NewSnapshot()
	defer snap.Release()

	// Overwrite the key many times and churn enough data to drive
	// flushes and compactions that would normally collapse versions.
	for round := 0; round < 5; round++ {
		db.Put([]byte(key), []byte(fmt.Sprintf("new-%d", round)))
		for i := 0; i < 1200; i++ {
			if err := db.Put(testKey(i), testValue(i+round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Wait for compactions to run.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && db.Metrics().CompactionLatency.Count() == 0 {
		time.Sleep(time.Millisecond)
	}
	if db.Metrics().CompactionLatency.Count() == 0 {
		t.Fatal("no compaction ran; test needs churn")
	}

	v, err := snap.Get([]byte(key))
	if err != nil || string(v) != "old-version" {
		t.Fatalf("snapshot version lost through compaction: %q, %v\n%s", v, err, db.DebugLayout())
	}
	v, err = db.Get([]byte(key))
	if err != nil || string(v) != "new-4" {
		t.Fatalf("live version = %q, %v", v, err)
	}
}

func TestSnapshotIterConsistent(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put(testKey(i), testValue(i))
	}
	snap := db.NewSnapshot()
	defer snap.Release()
	for i := 0; i < 100; i++ {
		db.Put(testKey(i), []byte("mutated"))
	}
	db.Put(testKey(200), []byte("extra"))

	it, err := snap.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Value()) != string(testValue(n)) {
			t.Fatalf("snapshot iter value[%d] = %q", n, it.Value())
		}
		n++
	}
	if n != 100 {
		t.Fatalf("snapshot iter saw %d keys, want 100", n)
	}
}

func TestReleasedSnapshotVersionsCollapse(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	db.Put([]byte("k"), []byte("v1"))
	snap := db.NewSnapshot()
	snap.Release()
	db.snapsMu.Lock()
	n := len(db.snapshots)
	db.snapsMu.Unlock()
	if n != 0 {
		t.Fatalf("snapshot still registered after release: %d", n)
	}
	// Double release is safe.
	snap.Release()
}

func TestStripeOf(t *testing.T) {
	snaps := []uint64{10, 20, 30}
	cases := []struct {
		seq    uint64
		stripe int
	}{
		{1, 0}, {10, 0}, {11, 1}, {20, 1}, {25, 2}, {30, 2}, {31, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := stripeOf(snaps, c.seq); got != c.stripe {
			t.Errorf("stripeOf(%d) = %d, want %d", c.seq, got, c.stripe)
		}
	}
	if got := stripeOf(nil, 5); got != 0 {
		t.Errorf("stripeOf with no snaps = %d", got)
	}
}

func TestManySnapshotsManyVersions(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.MemtableSize = 8 << 10
	})
	defer db.Close()

	var snaps []*Snapshot
	for i := 0; i < 10; i++ {
		db.Put([]byte("versioned"), []byte(fmt.Sprintf("v%d", i)))
		snaps = append(snaps, db.NewSnapshot())
		// Churn to force flushes between versions.
		for j := 0; j < 200; j++ {
			db.Put(testKey(j), testValue(i*200+j))
		}
	}
	waitForFlush(t, db)
	for i, s := range snaps {
		v, err := s.Get([]byte("versioned"))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("snapshot %d sees %q, %v", i, v, err)
		}
	}
	for _, s := range snaps {
		s.Release()
	}
}
