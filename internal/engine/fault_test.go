package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// faultFS wraps a vfs.FS and fails Create while tripped. It targets
// the background workers' error paths: flush and compaction must park,
// retry, and eventually succeed without losing data.
type faultFS struct {
	vfs.FS
	failCreates atomic.Bool
	creates     atomic.Int64
	failed      atomic.Int64
}

var errInjected = errors.New("injected create failure")

func (f *faultFS) Create(name string) (vfs.File, error) {
	f.creates.Add(1)
	if f.failCreates.Load() {
		f.failed.Add(1)
		return nil, errInjected
	}
	return f.FS.Create(name)
}

func TestFlushRetriesAfterTransientFault(t *testing.T) {
	inner := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	ffs := &faultFS{FS: inner}
	opts := DefaultOptions(ffs)
	opts.MemtableSize = 32 << 10
	opts.TargetFileSize = 32 << 10
	opts.SyncWAL = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Trip the fault, then write enough to force a rotation+flush.
	ffs.failCreates.Store(true)
	// Rotation creates a new WAL, which will also fail — so writes
	// stall. Write on a side goroutine while the fault is tripped.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 800; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// Give the system a moment to hit the fault, then clear it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ffs.failed.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	ffs.failCreates.Store(false)

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, errInjected) {
			t.Fatalf("writer failed: %v", err)
		}
		if err != nil {
			// The rotation that raced the fault surfaced the error
			// to one writer; everything after the clear must work.
			if err := db.Put([]byte("post-fault"), []byte("v")); err != nil {
				t.Fatalf("put after clearing fault: %v", err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writes hung after fault cleared")
	}

	// All successfully acknowledged keys must be readable.
	if _, err := db.Get(testKey(0)); err != nil {
		t.Fatalf("Get after fault: %v", err)
	}
	if ffs.failed.Load() == 0 {
		t.Skip("fault window missed (timing); nothing injected")
	}
}

func TestCompactionRetriesAfterTransientFault(t *testing.T) {
	inner := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	ffs := &faultFS{FS: inner}
	opts := DefaultOptions(ffs)
	opts.MemtableSize = 16 << 10
	opts.TargetFileSize = 16 << 10
	opts.BaseLevelBytes = 32 << 10
	opts.SyncWAL = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Build L0 pressure with the fault off so flushes succeed, then
	// trip it while compactions run.
	for i := 0; i < 1000; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.failCreates.Store(true)
	for i := 1000; i < 1100; i++ {
		db.Put(testKey(i), testValue(i)) // may fail while tripped; ok
		if i == 1020 {
			ffs.failCreates.Store(false)
		}
	}
	ffs.failCreates.Store(false)
	// Re-put the fault-window keys now that writes work again.
	for i := 1000; i < 1100; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("put after fault cleared: %v", err)
		}
	}

	// The tree must converge: compactions succeed after the fault.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if db.Metrics().CompactionLatency.Count() > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if db.Metrics().CompactionLatency.Count() == 0 {
		t.Fatalf("no compaction succeeded after fault cleared; layout:\n%s", db.DebugLayout())
	}
	for i := 0; i < 1100; i += 13 {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d after fault: %v", i, err)
		}
	}
}
