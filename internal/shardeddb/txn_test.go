package shardeddb

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// faultStore opens a store of n shards on a fault-injecting MemFS with
// a recovery budget that never gives up on a fault that heals.
func faultStore(t *testing.T, n int) (*DB, *faultfs.FS) {
	t.Helper()
	ffs, err := faultfs.New(vfs.NewMem(storage.New(clock.Real{}, storage.Null())), clock.Real{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(testOptions(ffs, n, fastRecovery))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db, ffs
}

func fastRecovery(o *Options) {
	o.Engine.RecoveryBaseBackoff = time.Millisecond
	o.Engine.RecoveryMaxBackoff = 5 * time.Millisecond
	o.Engine.MaxRecoveryAttempts = 1 << 20
}

func waitHealthy(t *testing.T, db *DB) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); db.Health() != engine.Healthy; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("store did not heal: %v", db.BackgroundError())
		}
	}
}

func wantValue(t *testing.T, db *DB, key []byte, want string) {
	t.Helper()
	v, err := db.Get(key)
	switch {
	case want == "" && !errors.Is(err, ErrNotFound):
		t.Errorf("Get(%q) = (%q, %v), want ErrNotFound", key, v, err)
	case want != "" && (err != nil || string(v) != want):
		t.Errorf("Get(%q) = (%q, %v), want %q", key, v, err, want)
	}
}

// TestFailedPhase2DoesNotClobberLaterWrite is the torn cross-shard batch
// on a live handle: phase 2 of {k0=b, k1=b} fails on shard 1, the shard
// heals, and a later Put(k1, c) is acknowledged. That Put must win after
// a reopen: the batch's queued step runs before it, not over it at the
// next open's roll-forward. Other writers to both shards race it into
// the queued step, which must run once.
func TestFailedPhase2DoesNotClobberLaterWrite(t *testing.T) {
	db, ffs := faultStore(t, 2)
	k0, k1 := shardKey(0, db, 0), shardKey(1, db, 0)
	// Shard 1's next two WAL writes are its prepare and its phase 2.
	ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpWrite}, Path: "shard-001/*.log", After: 1, FailNTimes: 1})
	b := new(batch.Batch)
	b.Put(k0, []byte("b"))
	b.Put(k1, []byte("b"))
	if err := db.Apply(b, true); err == nil {
		t.Fatal("Apply succeeded although phase 2 on shard 1 failed")
	}
	waitHealthy(t, db)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, v := shardKey(w%2, db, 1+w), "w"
			if w == 0 {
				k, v = k1, "c"
			}
			if err := db.Put(k, []byte(v)); err != nil {
				t.Errorf("Put(%q) after the shard healed: %v", k, err)
			}
		}()
	}
	wg.Wait()
	db.txnMu.Lock()
	pending := len(db.txnPending)
	db.txnMu.Unlock()
	if failed := db.txnP2Failures.Load(); failed != 1 || pending != 0 {
		t.Errorf("%d failed runs of the steps, %d batches pending; want 1 and 0", failed, pending)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db = reopenStore(t, ffs, 2, fastRecovery)
	defer db.Close()
	wantValue(t, db, k0, "b")
	wantValue(t, db, k1, "c")
}

// TestFenceSparesFinishedParticipants: phase 2 of {k0=b, k1=b} fails on
// shard 1, which stays unhealthy. Writes to shard 0, whose phase 2 is
// done, must go through without re-running shard 1's step; once shard
// 1 heals, its next write runs the step first.
func TestFenceSparesFinishedParticipants(t *testing.T) {
	db, ffs := faultStore(t, 2)
	k0, k1, other := shardKey(0, db, 0), shardKey(1, db, 0), shardKey(0, db, 1)
	// Every WAL write on shard 1 after its prepare fails.
	ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpWrite}, Path: "shard-001/*.log", After: 1})
	b := new(batch.Batch)
	b.Put(k0, []byte("b"))
	b.Put(k1, []byte("b"))
	if err := db.Apply(b, true); err == nil {
		t.Fatal("Apply succeeded although phase 2 on shard 1 failed")
	}
	for i := 0; i < 3; i++ {
		if err := db.Put(other, []byte("x")); err != nil {
			t.Fatalf("Put to the finished participant while shard 1 is down: %v", err)
		}
	}
	if failed := db.txnP2Failures.Load(); failed != 1 {
		t.Errorf("%d failed runs of the steps, want 1", failed)
	}
	ffs.ClearRules()
	waitHealthy(t, db)
	if err := db.Put(k1, []byte("c")); err != nil {
		t.Fatalf("Put(k1) after shard 1 healed: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db = reopenStore(t, ffs, 2, nil)
	defer db.Close()
	wantValue(t, db, k0, "b")
	wantValue(t, db, k1, "c")
	wantValue(t, db, other, "x")
}

// TestOldCoordinatorLogStore opens stores that carry an older version's
// coordinator log under meta/: without a surviving prepare the files
// go; with one, Open refuses the store, whose commit may live there.
func TestOldCoordinatorLogStore(t *testing.T) {
	for _, inDoubt := range []bool{false, true} {
		db, fs := newTestStore(t, 2, nil)
		if inDoubt {
			var pb batch.Batch
			pb.Put(txnKey(prepPrefix, 1), batchOf([][]byte{shardKey(1, db, 0)}).Repr())
			if err := db.Engines()[1].Apply(&pb, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"meta/TXN-000001-000", oldTxnCur} {
			f, err := fs.Create(n)
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		db, err := Open(testOptions(fs, 2, nil))
		if inDoubt {
			if err == nil {
				db.Close()
				t.Error("Open resolved a prepare whose commit may be recorded only in meta/")
			}
			continue
		}
		if err != nil {
			t.Fatalf("Open with a leftover meta/: %v", err)
		}
		db.Close()
		names, _ := fs.List()
		for _, n := range names {
			if strings.HasPrefix(n, "meta/") {
				t.Errorf("%s survived the open", n)
			}
		}
	}
}

// TestCommitRecordSyncFailureIsAllOrNothing fails the sync of a batch's
// commit record once. Crash images taken right after the failure, and
// after later writes ran the batch's queued steps, must each hold the
// batch on every participant or on none, under every materialisation.
func TestCommitRecordSyncFailureIsAllOrNothing(t *testing.T) {
	db, ffs := faultStore(t, 3)
	x0, x1 := shardKey(0, db, 0), shardKey(1, db, 0)
	after0, y0, y2 := shardKey(0, db, 1), shardKey(0, db, 2), shardKey(2, db, 2)
	// Shard 0 holds the commit record; its first WAL sync is the prepare.
	ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: "shard-000/*.log", After: 1, FailNTimes: 1})
	x := new(batch.Batch)
	x.Put(x0, []byte("x"))
	x.Put(x1, []byte("x"))
	if err := db.Apply(x, true); err == nil {
		t.Fatal("Apply succeeded although the commit record's sync failed")
	}
	failed := ffs.Snapshot()
	waitHealthy(t, db)
	// A synced write to shard 0 alone, then a batch on shards 0 and 2:
	// shard 1 sees no write after the failure.
	if err := db.Apply(batchOf([][]byte{after0}), true); err != nil {
		t.Fatalf("write to shard 0: %v", err)
	}
	y := new(batch.Batch)
	y.Put(y0, []byte("y"))
	y.Put(y2, []byte("y"))
	if err := db.Apply(y, true); err != nil {
		t.Fatalf("batch on shards 0 and 2: %v", err)
	}
	later := ffs.Snapshot()
	_ = db.Close()

	rng := rand.New(rand.NewSource(1))
	for _, img := range []struct {
		name  string
		snap  *faultfs.Snapshot
		acked [][]byte // synced and acknowledged before the image
	}{{"after the failure", failed, nil}, {"after later writes", later, [][]byte{after0, y0, y2}}} {
		for _, mode := range []struct {
			name string
			opts faultfs.CrashOpts
		}{
			{"clean", faultfs.CrashOpts{}},
			{"partial-sync", faultfs.CrashOpts{KeepUnsynced: true}},
			{"torn", faultfs.CrashOpts{KeepUnsynced: true, Torn: true}},
		} {
			for try := 0; try < 5; try++ {
				fs, err := img.snap.Materialize(storage.New(clock.Real{}, storage.Null()), rng, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				db := reopenStore(t, fs, 3, nil)
				_, err0 := db.Get(x0)
				_, err1 := db.Get(x1)
				if (err0 == nil) != (err1 == nil) {
					t.Errorf("%s, %s image %d: the batch is torn: Get(x0) err=%v, Get(x1) err=%v", img.name, mode.name, try, err0, err1)
				}
				for _, k := range img.acked {
					if _, err := db.Get(k); err != nil {
						t.Errorf("%s, %s image %d: acknowledged synced key %q: %v", img.name, mode.name, try, k, err)
					}
				}
				db.Close()
			}
		}
	}
}

// TestCommitRecordGC commits more than one GC interval of unsynced
// cross-shard batches: the pass must leave fewer than one interval of
// commit records live, and a crash image taken right after it must
// hold every batch finished before it — the pass forced the phase-2
// writes down before it deleted their commit records.
func TestCommitRecordGC(t *testing.T) {
	ffs, err := faultfs.New(vfs.NewMem(storage.New(clock.Real{}, storage.Null())), clock.Real{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(testOptions(ffs, 2, func(o *Options) { o.Engine.SyncWAL = false }))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	liveCommits := func() (n int) {
		for _, s := range db.Engines() {
			if err := scanPrefix(s, commitPrefix, func(_, _ []byte) { n++ }); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	var snap *faultfs.Snapshot
	for i := 0; i < txnGCEvery+100; i++ {
		if err := db.Apply(batchOf([][]byte{shardKey(0, db, i), shardKey(1, db, i)}), false); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == txnGCEvery-1 {
			// The pass ran inside this Apply. A synced write to shard 0
			// makes its commit-record deletes durable; only the pass's
			// own sync keeps shard 1's phase 2 in the image.
			if n := liveCommits(); n != 0 {
				t.Fatalf("%d commit records live right after the pass", n)
			}
			if err := db.Apply(batchOf([][]byte{shardKey(0, db, 1<<20)}), true); err != nil {
				t.Fatal(err)
			}
			snap = ffs.Snapshot()
		}
	}
	if n := liveCommits(); n >= txnGCEvery {
		t.Errorf("%d commit records live after %d batches, want fewer than %d", n, txnGCEvery+100, txnGCEvery)
	}

	img, err := snap.Materialize(storage.New(clock.Real{}, storage.Null()), rand.New(rand.NewSource(1)), faultfs.CrashOpts{})
	if err != nil {
		t.Fatal(err)
	}
	db2 := reopenStore(t, img, 2, nil)
	defer db2.Close()
	for i := 0; i < txnGCEvery; i++ {
		for s := 0; s < 2; s++ {
			if _, err := db2.Get(shardKey(s, db2, i)); err != nil {
				t.Fatalf("batch %d, shard %d, after the crash: %v", i, s, err)
			}
		}
	}
}

// TestOneDurableLogPerShard: after cross-shard batches and a Close,
// every file of the store lives in a shard directory.
func TestOneDurableLogPerShard(t *testing.T) {
	db, fs := newTestStore(t, 3, nil)
	for i := 0; i < 20; i++ {
		if err := db.Apply(batchOf([][]byte{shardKey(0, db, i), shardKey(1, db, i), shardKey(2, db, i)}), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	inShard := regexp.MustCompile(`^shard-\d{3}/[^/]+$`)
	for _, n := range names {
		if !inShard.MatchString(n) {
			t.Errorf("file %q lies outside the shard directories", n)
		}
	}
	if len(names) == 0 {
		t.Fatal("the store left no files")
	}
}
