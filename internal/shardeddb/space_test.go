package shardeddb

import (
	"errors"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// TestShardedSharedSpaceBudget is the one-budget-many-shards contract:
// bytes written through ANY shard consume the single shared budget, a
// squeeze to zero free space stops writes on EVERY shard — including a
// cross-shard atomic batch mid-submission — while reads keep serving,
// and a budget raise releases them all with the batch committing
// atomically.
func TestShardedSharedSpaceBudget(t *testing.T) {
	db, _ := newTestStore(t, 4, func(o *Options) {
		o.Engine.MaxAllowedSpace = 1 << 30
	})
	defer db.Close()

	sm := db.Shared().Space
	if sm == nil {
		t.Fatal("Shared().Space = nil with MaxAllowedSpace set")
	}
	for s := 0; s < 4; s++ {
		if db.Engines()[s].Shared() != db.Shared() {
			t.Fatalf("shard %d opened in a Shared of its own", s)
		}
	}

	// Load only shard 0: the hot shard's bytes drain the shared budget.
	for i := 0; i < 100; i++ {
		if err := db.Put(shardKey(0, db, i), shardKey(0, db, i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if sm.Used() == 0 {
		t.Fatal("shared budget saw no usage from shard 0's writes")
	}

	// Squeeze to exactly current consumption: free space is zero, the
	// ladder reads Stopped, and every shard observes it.
	sm.SetBudget(sm.Used() + sm.Reserved())
	if s := sm.State(); s != throttle.StateStopped {
		t.Fatalf("ladder after squeeze = %v, want Stopped", s)
	}

	// A cross-shard atomic batch stalls (writes stopped everywhere) —
	// it must neither fail nor commit partially.
	b := new(batch.Batch)
	for s := 0; s < 4; s++ {
		b.Put(shardKey(s, db, 9999), []byte("atomic"))
	}
	applied := make(chan error, 1)
	go func() { applied <- db.Apply(b, true) }()
	select {
	case err := <-applied:
		t.Fatalf("Apply finished under a stopped ladder: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Reads on every shard keep serving during the stall.
	for i := 0; i < 100; i += 17 {
		if _, err := db.Get(shardKey(0, db, i)); err != nil {
			t.Fatalf("Get during stall: %v", err)
		}
	}

	// The operator grows the budget; the stalled batch commits whole.
	sm.SetBudget(1 << 30)
	select {
	case err := <-applied:
		if err != nil {
			t.Fatalf("Apply after budget raise: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cross-shard batch still stalled after budget raise")
	}
	for s := 0; s < 4; s++ {
		v, err := db.Get(shardKey(s, db, 9999))
		if err != nil || string(v) != "atomic" {
			t.Fatalf("shard %d after raise: %q, %v", s, v, err)
		}
	}
}

// TestShardedEnospcKeepsBatchesAtomic drives a real injected disk-full
// through the 2PC path: with the filesystem quota squeezed below usage
// a cross-shard Apply must fail WITHOUT leaving any prepared write
// visible on any shard, and after the quota releases (and every shard's
// wait-for-space recovery heals), the same batch applies cleanly.
func TestShardedEnospcKeepsBatchesAtomic(t *testing.T) {
	dev := storage.New(clock.Real{}, storage.Null())
	ffs, err := faultfs.New(vfs.NewMem(dev), clock.Real{}, 1)
	if err != nil {
		t.Fatalf("faultfs.New: %v", err)
	}
	db, err := Open(testOptions(ffs, 4, func(o *Options) {
		o.Engine.RecoveryBaseBackoff = time.Millisecond
		o.Engine.RecoveryMaxBackoff = 5 * time.Millisecond
		o.Engine.MaxRecoveryAttempts = 1 << 20 // no giveup: the test releases
	}))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	for s := 0; s < 4; s++ {
		for i := 0; i < 20; i++ {
			if err := db.Put(shardKey(s, db, i), shardKey(s, db, i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
	}

	ffs.SetQuota(ffs.DiskUsed()) // full: any WAL append fails

	b := new(batch.Batch)
	for s := 0; s < 4; s++ {
		b.Put(shardKey(s, db, 8888), []byte("squeezed"))
	}
	if err := db.Apply(b, true); err == nil {
		t.Fatal("cross-shard Apply on a full disk succeeded")
	}

	// Atomicity under ENOSPC: no shard may expose any key of the
	// failed batch, prepared or otherwise.
	for s := 0; s < 4; s++ {
		if _, err := db.Get(shardKey(s, db, 8888)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("shard %d leaked a key from the aborted batch: %v", s, err)
		}
	}
	// Reads of pre-squeeze data serve throughout.
	for s := 0; s < 4; s++ {
		if _, err := db.Get(shardKey(s, db, 0)); err != nil {
			t.Fatalf("Get shard %d during squeeze: %v", s, err)
		}
	}

	ffs.SetQuota(-1)
	deadline := time.Now().Add(10 * time.Second)
	for s := 0; s < 4; s++ {
		for db.Engines()[s].Health() != engine.Healthy {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d did not heal after release: %v",
					s, db.Engines()[s].BackgroundError())
			}
			time.Sleep(time.Millisecond)
		}
	}

	if err := db.Apply(b, true); err != nil {
		t.Fatalf("Apply after release: %v", err)
	}
	for s := 0; s < 4; s++ {
		v, err := db.Get(shardKey(s, db, 8888))
		if err != nil || string(v) != "squeezed" {
			t.Fatalf("shard %d after release: %q, %v", s, v, err)
		}
	}
	// Nothing previously acknowledged was lost.
	for s := 0; s < 4; s++ {
		for i := 0; i < 20; i++ {
			if _, err := db.Get(shardKey(s, db, i)); err != nil {
				t.Fatalf("Get shard %d key %d after recovery: %v", s, i, err)
			}
		}
	}
}
