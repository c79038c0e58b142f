package engine

import (
	"errors"
	"math/rand"
	"testing"

	"xpointdb/internal/clock"
	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/manifest"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// newFaultTestDB opens a DB on a faultfs-wrapped MemFS so tests can
// inject storage failures after open.
func newFaultTestDB(t *testing.T, tweak func(*Options)) (*DB, *faultfs.FS) {
	t.Helper()
	opts, ffs := faultTestOptions(t, tweak)
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db, ffs
}

func faultTestOptions(t *testing.T, tweak func(*Options)) (Options, *faultfs.FS) {
	t.Helper()
	dev := storage.New(clock.Real{}, storage.Null())
	ffs, err := faultfs.New(vfs.NewMem(dev), clock.Real{}, 1)
	if err != nil {
		t.Fatalf("faultfs.New: %v", err)
	}
	opts := DefaultOptions(ffs)
	opts.MemtableSize = 64 << 10
	opts.ThrottleMode = throttle.ModeNone
	opts.SyncWAL = true
	// Most latch tests assert that the error STAYS latched; recovery
	// tests opt back in via tweak.
	opts.DisableAutoRecovery = true
	if tweak != nil {
		tweak(&opts)
	}
	return opts, ffs
}

// TestWALSyncFailureLatches is the regression test for the sync-error
// audit: a failed WAL sync must fail the requesting write AND latch a
// background error so subsequent writes fail fast, rather than
// acknowledging data the log cannot promise durable.
func TestWALSyncFailureLatches(t *testing.T) {
	buf := &events.Buffer{}
	db, ffs := newFaultTestDB(t, func(o *Options) { o.EventListener = buf })
	defer db.Close()

	if err := db.Put(testKey(0), testValue(0)); err != nil {
		t.Fatalf("healthy Put: %v", err)
	}
	ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", Count: 1})

	err := db.Put(testKey(1), testValue(1))
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Put during sync fault = %v, want injected error", err)
	}
	// The latch must reject the next write fast — the fault rule is
	// exhausted (Count 1), so only the latch can fail this.
	err = db.Put(testKey(2), testValue(2))
	if !errors.Is(err, ErrBackground) {
		t.Fatalf("Put after sync fault = %v, want ErrBackground", err)
	}
	if db.BackgroundError() == nil {
		t.Fatal("BackgroundError() = nil after latched WAL sync failure")
	}
	if err := db.Flush(); !errors.Is(err, ErrBackground) {
		t.Fatalf("Flush after latch = %v, want ErrBackground", err)
	}

	// Reads still serve the pre-failure state.
	if v, err := db.Get(testKey(0)); err != nil || string(v) != string(testValue(0)) {
		t.Fatalf("Get(key0) after latch = (%q, %v)", v, err)
	}
	// The failed and rejected writes were never acknowledged.
	for i := 1; i <= 2; i++ {
		if _, err := db.Get(testKey(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(key%d) = %v, want ErrNotFound (write was never acked)", i, err)
		}
	}

	// The latch moment is in the event stream.
	db.SyncEvents()
	found := false
	for _, e := range buf.Events() {
		if e.Kind == events.KindBackgroundError && e.BGError.Op == "wal-sync" {
			found = true
		}
	}
	if !found {
		t.Fatal("no background_error event with op=wal-sync emitted")
	}
}

// TestRotationSyncFailureLatches covers the audited path where the WAL
// rotation syncs the outgoing log: that sync's error used to be
// computed and dropped; it must latch.
func TestRotationSyncFailureLatches(t *testing.T) {
	// SyncWAL=false so the per-commit path never syncs: the only sync
	// of the outgoing log happens inside the rotation.
	db, ffs := newFaultTestDB(t, func(o *Options) {
		o.SyncWAL = false
		o.MemtableSize = 8 << 10
	})
	defer db.Close()

	ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", Count: 1})

	// Fill until the memtable rotates (hitting the faulted sync) or
	// the latch rejects the write.
	var sawLatch bool
	for i := 0; i < 10000; i++ {
		err := db.Put(testKey(i), testValue(i))
		if err == nil {
			continue
		}
		if errors.Is(err, ErrBackground) || errors.Is(err, faultfs.ErrInjected) {
			sawLatch = true
			break
		}
		t.Fatalf("Put %d: unexpected error %v", i, err)
	}
	if !sawLatch {
		t.Fatal("10000 puts never triggered the rotation sync fault")
	}
	if db.BackgroundError() == nil {
		t.Fatal("BackgroundError() = nil after rotation sync failure")
	}
	if err := db.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrBackground) {
		t.Fatalf("Put after rotation sync failure = %v, want ErrBackground", err)
	}
}

// TestManifestAppendFailureLatches covers the MANIFEST append/sync
// path: a version edit that cannot be made durable must latch, not
// retry into a log whose tail may hold a torn edit.
func TestManifestAppendFailureLatches(t *testing.T) {
	db, ffs := newFaultTestDB(t, nil)
	defer db.Close()

	for i := 0; i < 50; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: "MANIFEST-*", Count: 1})

	// Force a flush: its commitEdit hits the faulted MANIFEST sync.
	// Flush surfaces the latch either as its own error or via the
	// idled flush worker.
	if err := db.Flush(); err == nil {
		t.Fatal("Flush with faulted MANIFEST sync succeeded")
	}
	if db.BackgroundError() == nil {
		t.Fatal("BackgroundError() = nil after MANIFEST sync failure")
	}
	if err := db.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrBackground) {
		t.Fatalf("Put after MANIFEST failure = %v, want ErrBackground", err)
	}
	// Pre-failure data still reads.
	if v, err := db.Get(testKey(0)); err != nil || string(v) != string(testValue(0)) {
		t.Fatalf("Get(key0) after latch = (%q, %v)", v, err)
	}
}

// TestManifestSyncFailureKeepsOutput: a flush whose MANIFEST sync
// fails has already written its edit, and a crash can preserve those
// bytes. The SST the edit names must therefore stay on disk: reopening
// the image that kept the whole unsynced tail has to find it.
func TestManifestSyncFailureKeepsOutput(t *testing.T) {
	db, ffs := newFaultTestDB(t, nil)
	defer db.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: "MANIFEST-*", Count: 1})
	if err := db.Flush(); err == nil {
		t.Fatal("Flush with faulted MANIFEST sync succeeded")
	}

	snap := ffs.Snapshot()
	var manifestName string
	for _, name := range snap.Files() {
		if typ, _ := manifest.ParseName(name); typ == manifest.TypeManifest {
			manifestName = name
		}
	}
	if snap.TotalBytes(manifestName) == snap.SyncedBytes(manifestName) {
		t.Fatalf("%s has no unsynced tail: the failed sync left no edit to survive", manifestName)
	}
	// Materialize keeps a seeded-random prefix of the tail; take the
	// first seed that keeps all of it.
	dev := storage.New(clock.Real{}, storage.Null())
	var img *vfs.MemFS
	for seed := int64(0); ; seed++ {
		if seed == 10000 {
			t.Fatal("no seed kept the whole MANIFEST tail")
		}
		var err error
		img, err = snap.Materialize(dev, rand.New(rand.NewSource(seed)), faultfs.CrashOpts{KeepUnsynced: true})
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		if size, _ := img.Size(manifestName); size == snap.TotalBytes(manifestName) {
			break
		}
	}

	opts := DefaultOptions(img)
	opts.ThrottleMode = throttle.ModeNone
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		if v, err := db2.Get(testKey(i)); err != nil || string(v) != string(testValue(i)) {
			t.Fatalf("Get(key %d) after reopen = (%q, %v)", i, v, err)
		}
	}
}

// TestBackgroundErrorClearsOnReopen: the latch is per-instance; a
// reopen recovers to the last durable state and accepts writes again.
func TestBackgroundErrorClearsOnReopen(t *testing.T) {
	db, ffs := newFaultTestDB(t, nil)

	if err := db.Put(testKey(0), testValue(0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rule := ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", Count: 1})
	if err := db.Put(testKey(1), testValue(1)); err == nil {
		t.Fatal("Put with faulted sync succeeded")
	}
	if rule.Fired() != 1 {
		t.Fatalf("rule fired %d times, want 1", rule.Fired())
	}
	_ = db.Close()

	// Reopen from the crash image (synced state only).
	dev := storage.New(clock.Real{}, storage.Null())
	img, err := ffs.Snapshot().Materialize(dev, nil, faultfs.CrashOpts{})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	opts := DefaultOptions(img)
	opts.ThrottleMode = throttle.ModeNone
	opts.SyncWAL = true
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if db2.BackgroundError() != nil {
		t.Fatalf("fresh instance has background error: %v", db2.BackgroundError())
	}
	if v, err := db2.Get(testKey(0)); err != nil || string(v) != string(testValue(0)) {
		t.Fatalf("Get(key0) after reopen = (%q, %v)", v, err)
	}
	if err := db2.Put(testKey(2), testValue(2)); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
}
