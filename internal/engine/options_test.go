package engine

import (
	"reflect"
	"testing"

	"xpointdb/internal/bgpool"
	"xpointdb/internal/cache"
	"xpointdb/internal/clock"
	"xpointdb/internal/costmodel"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// TestOptionsCarryNoSharedResource keeps the resources a Shared builds
// out of Options: a set of engines is an argument, not a knob, so no
// caller can hand an engine a cache, controller, pool, pacer or space
// budget of its own choosing.
func TestOptionsCarryNoSharedResource(t *testing.T) {
	shared := map[reflect.Type]bool{
		reflect.TypeOf((*cache.Cache)(nil)):         true,
		reflect.TypeOf((*throttle.Controller)(nil)): true,
		reflect.TypeOf((*bgpool.Pool)(nil)):         true,
		reflect.TypeOf((*costmodel.Pacer)(nil)):     true,
		reflect.TypeOf((*SpaceManager)(nil)):        true,
	}
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		if f := ot.Field(i); shared[f.Type] {
			t.Errorf("Options.%s has type %v: shared resources are built by NewShared", f.Name, f.Type)
		}
	}
}

func TestOpenRequiresFS(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without FS succeeded")
	}
}

func TestWithDefaultsFillsZeroFields(t *testing.T) {
	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	o := Options{FS: fs}.withDefaults()
	if o.Clock == nil {
		t.Fatal("Clock not defaulted")
	}
	if o.MemtableSize <= 0 || o.L0CompactionTrigger <= 0 || o.L0SlowdownTrigger <= 0 || o.L0StopTrigger <= 0 {
		t.Fatalf("LSM sizing not defaulted: %+v", o)
	}
	if o.TargetFileSize != o.MemtableSize {
		t.Fatalf("TargetFileSize default should track MemtableSize: %d vs %d", o.TargetFileSize, o.MemtableSize)
	}
	if o.BaseLevelBytes != 4*o.MemtableSize {
		t.Fatalf("BaseLevelBytes default = %d", o.BaseLevelBytes)
	}
	if o.MaxBatchGroupBytes <= 0 || o.DelayedWriteRate <= 0 {
		t.Fatal("write-path knobs not defaulted")
	}
}

func TestDefaultsMatchRocksDBTriggers(t *testing.T) {
	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	d := DefaultOptions(fs)
	// The paper's reference configuration.
	if d.L0CompactionTrigger != 4 || d.L0SlowdownTrigger != 20 || d.L0StopTrigger != 36 {
		t.Fatalf("L0 triggers = %d/%d/%d, want RocksDB's 4/20/36",
			d.L0CompactionTrigger, d.L0SlowdownTrigger, d.L0StopTrigger)
	}
	if d.DelayedWriteRate != 16<<20 {
		t.Fatalf("delayed write rate = %f, want 16 MiB/s", d.DelayedWriteRate)
	}
	if d.SyncWAL {
		t.Fatal("SyncWAL must default false (db_bench/paper configuration)")
	}
	if !d.PipelinedWrites {
		t.Fatal("pipelined writes (Algorithm 2) should be the default")
	}
}

func TestOpenOnExistingEmptyDirIsFresh(t *testing.T) {
	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	db, err := Open(DefaultOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Second open recovers the (empty) database.
	db2, err := Open(DefaultOptions(fs))
	if err != nil {
		t.Fatalf("reopen empty db: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("Get on empty reopened db: %v", err)
	}
}
