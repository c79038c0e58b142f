package engine

import (
	"fmt"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// newTestDB returns a DB on a zero-latency in-memory FS with the real
// clock and a small memtable so flushes and compactions actually occur.
func newTestDB(t *testing.T, tweak func(*Options)) (*DB, *vfs.MemFS) {
	t.Helper()
	dev := storage.New(clock.Real{}, storage.Null())
	fs := vfs.NewMem(dev)
	opts := DefaultOptions(fs)
	opts.MemtableSize = 64 << 10
	opts.TargetFileSize = 64 << 10
	opts.BaseLevelBytes = 256 << 10
	opts.ThrottleMode = throttle.ModeNone
	opts.SyncWAL = true // tests exercise the durable path
	if tweak != nil {
		tweak(&opts)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db, fs
}

func testKey(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func testValue(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%032d", i, i)) }

func TestPutGetSmoke(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := db.Get([]byte("hello"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(v) != "world" {
		t.Fatalf("Get = %q, want world", v)
	}
	if _, err := db.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestPutGetAcrossFlushes(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	const n = 3000
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Multiple memtables' worth of data must have been flushed.
	waitForFlush(t, db)
	for i := 0; i < n; i++ {
		v, err := db.Get(testKey(i))
		if err != nil {
			t.Fatalf("Get %d: %v (layout:\n%s)", i, err, db.DebugLayout())
		}
		if string(v) != string(testValue(i)) {
			t.Fatalf("Get %d = %q", i, v)
		}
	}
}

// waitForFlush blocks until no immutable memtables remain.
func waitForFlush(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		db.mu.Lock()
		n := len(db.imms)
		db.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("flush never completed")
}

func TestOverwriteReturnsNewest(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	key := []byte("k")
	for i := 0; i < 100; i++ {
		if err := db.Put(key, testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := db.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != string(testValue(99)) {
		t.Fatalf("Get = %q, want newest", v)
	}
}

func TestDeleteHidesKey(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); err != ErrNotFound {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
}

func TestDeleteAcrossFlush(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	// Write enough around the delete that the tombstone and the value
	// land in different SSTs.
	for i := 0; i < 1500; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(testKey(700)); err != nil {
		t.Fatal(err)
	}
	for i := 1500; i < 3000; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitForFlush(t, db)
	if _, err := db.Get(testKey(700)); err != ErrNotFound {
		t.Fatalf("deleted key resurfaced: %v\n%s", err, db.DebugLayout())
	}
	if _, err := db.Get(testKey(701)); err != nil {
		t.Fatalf("neighbor key lost: %v", err)
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	var b batch.Batch
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	b.Delete([]byte("x"))
	if err := db.Apply(&b, true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("x")); err != ErrNotFound {
		t.Fatalf("x should be deleted by the batch's own tombstone: %v", err)
	}
	v, err := db.Get([]byte("y"))
	if err != nil || string(v) != "2" {
		t.Fatalf("y = %q, %v", v, err)
	}
}

func TestIterSeesSortedUserKeys(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	const n = 2500
	for i := n - 1; i >= 0; i-- {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Delete(testKey(10))
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if i == 10 {
			i++ // deleted
		}
		if string(it.Key()) != string(testKey(i)) {
			t.Fatalf("iter key[%d] = %q, want %q", i, it.Key(), testKey(i))
		}
		if string(it.Value()) != string(testValue(i)) {
			t.Fatalf("iter value[%d] = %q", i, it.Value())
		}
		i++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("iterated %d keys, want %d", i, n)
	}
}

func TestIterSeekGE(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	for i := 0; i < 100; i += 2 { // even keys only
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.SeekGE(testKey(31))
	if !it.Valid() || string(it.Key()) != string(testKey(32)) {
		t.Fatalf("SeekGE(31) = %q, want key-000032", it.Key())
	}
}

func TestIterSnapshotIsolation(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	db.Put([]byte("k"), []byte("old"))
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	db.Put([]byte("k"), []byte("new"))
	db.Put([]byte("k2"), []byte("after"))

	it.SeekToFirst()
	if !it.Valid() || string(it.Value()) != "old" {
		t.Fatalf("snapshot iter sees %q, want old", it.Value())
	}
	it.Next()
	if it.Valid() {
		t.Fatalf("snapshot iter sees key written after creation: %q", it.Key())
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	db, fs := newTestDB(t, nil)
	const n = 500
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify everything survived.
	opts := DefaultOptions(fs)
	opts.MemtableSize = 64 << 10
	opts.ThrottleMode = throttle.ModeNone
	opts.SyncWAL = true
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		v, err := db2.Get(testKey(i))
		if err != nil {
			t.Fatalf("Get %d after recovery: %v", i, err)
		}
		if string(v) != string(testValue(i)) {
			t.Fatalf("Get %d = %q after recovery", i, v)
		}
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	db, fs := newTestDB(t, nil)
	const n = 800
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: clone the FS at its synced state without
	// closing the DB.
	crashed := fs.CrashClone()
	db.Close()

	opts := DefaultOptions(crashed)
	opts.MemtableSize = 64 << 10
	opts.ThrottleMode = throttle.ModeNone
	opts.SyncWAL = true
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	// Every synced write must be present (SyncWAL=true syncs each
	// commit, so all acknowledged writes survive).
	for i := 0; i < n; i++ {
		v, err := db2.Get(testKey(i))
		if err != nil {
			t.Fatalf("Get %d after crash: %v", i, err)
		}
		if string(v) != string(testValue(i)) {
			t.Fatalf("Get %d = %q after crash", i, v)
		}
	}
}

func TestCompactionReducesL0(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
		o.TargetFileSize = 32 << 10
		o.BaseLevelBytes = 64 << 10
	})
	defer db.Close()

	for i := 0; i < 6000; i++ {
		if err := db.Put(testKey(i%2000), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Give background compaction a moment, then verify it ran and L0
	// stayed bounded.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if db.Metrics().CompactionLatency.Count() > 0 && db.NumLevelFiles(0) < 8 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := db.Metrics().CompactionLatency.Count(); got == 0 {
		t.Fatalf("no compactions ran; layout:\n%s", db.DebugLayout())
	}
	if l1 := db.NumLevelFiles(1); l1 == 0 {
		t.Fatalf("L1 empty after compactions; layout:\n%s", db.DebugLayout())
	}
	// All newest values must still be readable.
	for i := 0; i < 2000; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d after compaction: %v", i, err)
		}
	}
}

func TestConcurrentWriters(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	const workers, per = 8, 300
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if err := db.Put(testKey(w*per+i), testValue(w*per+i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers*per; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put(testKey(i), testValue(i))
	}
	done := make(chan error, 4)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < 500; i++ {
				if err := db.Put(testKey(500+w*500+i), testValue(i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
		go func() {
			for i := 0; i < 500; i++ {
				if _, err := db.Get(testKey(i)); err != nil {
					done <- fmt.Errorf("read %d: %w", i, err)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestClosedDBErrors(t *testing.T) {
	db, _ := newTestDB(t, nil)
	db.Close()
	if err := db.Put([]byte("a"), []byte("b")); err != ErrClosed {
		t.Fatalf("Put on closed = %v", err)
	}
	if _, err := db.Get([]byte("a")); err != ErrClosed {
		t.Fatalf("Get on closed = %v", err)
	}
	if err := db.Close(); err != ErrClosed {
		t.Fatalf("double Close = %v", err)
	}
}

func TestDisableWAL(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) { o.DisableWAL = true })
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
}

func TestNonPipelinedWrites(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) { o.PipelinedWrites = false })
	defer db.Close()
	const workers, per = 4, 200
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if err := db.Put(testKey(w*per+i), testValue(i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers*per; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
}

func TestWALOnSeparateFS(t *testing.T) {
	dataDev := storage.New(clock.Real{}, storage.Null())
	walDev := storage.New(clock.Real{}, storage.Null())
	dataFS := vfs.NewMem(dataDev)
	walFS := vfs.NewMem(walDev)
	opts := DefaultOptions(dataFS)
	opts.WALFS = walFS
	opts.MemtableSize = 64 << 10
	opts.SyncWAL = true // force WAL device traffic per commit
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	// WAL traffic must have hit the WAL device, not the data device.
	if walDev.Stats().Writes == 0 {
		t.Fatal("no writes reached the WAL device")
	}
	names, _ := walFS.List()
	foundLog := false
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".log" {
			foundLog = true
		}
	}
	if !foundLog {
		t.Fatalf("no .log file on WAL FS: %v", names)
	}
	db.Close()
}

// TestSimulatedEngine runs the whole engine under the virtual-time
// kernel with a real device profile and checks that virtual time
// advanced commensurately with device work.
func TestSimulatedEngine(t *testing.T) {
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	dev := storage.New(k, storage.XPoint())
	fs := vfs.NewMem(dev)

	k.Run(func() {
		opts := DefaultOptions(fs)
		opts.Clock = k
		opts.MemtableSize = 64 << 10
		db, err := Open(opts)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		for i := 0; i < 1000; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
		for i := 0; i < 1000; i++ {
			if _, err := db.Get(testKey(i)); err != nil {
				t.Errorf("Get %d: %v", i, err)
				return
			}
		}
		if err := db.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if k.Elapsed() <= 0 {
		t.Fatal("virtual time did not advance")
	}
	if dev.Stats().Writes == 0 {
		t.Fatal("no device writes recorded")
	}
	t.Logf("virtual time: %v, device: %v", k.Elapsed(), dev.Stats())
}
