package shardeddb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// modelBoundaries split the test keyspace (key-0000 … key-1999) into
// four ranges so random keys spread across all shards and random
// batches routinely span several of them.
func modelBoundaries() [][]byte {
	return [][]byte{[]byte("key-0500"), []byte("key-1000"), []byte("key-1500")}
}

func modelOptions(fs vfs.FS) Options {
	eo := engine.DefaultOptions(fs)
	eo.MemtableSize = 32 << 10 // frequent flushes
	eo.TargetFileSize = 32 << 10
	eo.BaseLevelBytes = 64 << 10
	eo.ThrottleMode = throttle.ModeNone
	eo.SyncWAL = true
	return Options{Shards: 4, Boundaries: modelBoundaries(), Engine: eo}
}

// TestShardedRandomOpsAgainstModel is the sharded twin of the engine's
// model test: a long random sequence of puts, deletes and atomic
// batches — many of them spanning shards and therefore committing
// through the two-phase protocol — checked against an in-memory
// reference model after each phase. The store runs on one shared
// faultfs (all four shard directories crash together, as one
// filesystem would), and crash phases
// exercise progressively harsher images: clean, partial-sync, torn.
// With SyncWAL=true every acknowledged write — including every
// acknowledged cross-shard batch — must survive all three unchanged,
// and no torn batch may ever surface partially.
func TestShardedRandomOpsAgainstModel(t *testing.T) {
	newFFS := func(inner *vfs.MemFS, seed int64) *faultfs.FS {
		t.Helper()
		ffs, err := faultfs.New(inner, clock.Real{}, seed)
		if err != nil {
			t.Fatalf("faultfs.New: %v", err)
		}
		return ffs
	}
	mem := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	fs := newFFS(mem, 54321)
	db, err := Open(modelOptions(fs))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(54321))
	crossBatches := 0

	checkAll := func(phase string) {
		t.Helper()
		for k, want := range model {
			v, err := db.Get([]byte(k))
			if err != nil {
				t.Fatalf("%s: Get(%q) = %v", phase, k, err)
			}
			if string(v) != want {
				t.Fatalf("%s: Get(%q) = %q, want %q", phase, k, v, want)
			}
		}
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("absent-%d", rng.Intn(1000))
			if _, err := db.Get([]byte(k)); err != ErrNotFound {
				t.Fatalf("%s: absent key %q: %v", phase, k, err)
			}
		}
		// Full cross-shard scan must equal the sorted model — this is
		// also what proves 2PC bookkeeping keys never leak out.
		var want []string
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		it, err := db.NewIter()
		if err != nil {
			t.Fatalf("%s: NewIter: %v", phase, err)
		}
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if i >= len(want) {
				t.Fatalf("%s: scan has extra key %q", phase, it.Key())
			}
			if string(it.Key()) != want[i] {
				t.Fatalf("%s: scan[%d] = %q, want %q", phase, i, it.Key(), want[i])
			}
			if string(it.Value()) != model[want[i]] {
				t.Fatalf("%s: scan value for %q = %q", phase, it.Key(), it.Value())
			}
			i++
		}
		if err := it.Error(); err != nil {
			t.Fatalf("%s: iter error: %v", phase, err)
		}
		it.Close()
		if i != len(want) {
			t.Fatalf("%s: scan saw %d keys, model has %d", phase, i, len(want))
		}
	}

	key := func() string { return fmt.Sprintf("key-%04d", rng.Intn(2000)) }

	for phase := 0; phase < 6; phase++ {
		for op := 0; op < 600; op++ {
			switch rng.Intn(10) {
			case 0, 1: // delete
				k := key()
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			case 2, 3: // atomic batch, frequently cross-shard
				var b batch.Batch
				n := rng.Intn(10) + 1
				type rec struct {
					k, v string
					del  bool
				}
				var recs []rec
				shards := map[int]bool{}
				for j := 0; j < n; j++ {
					k := key()
					shards[db.ShardForKey([]byte(k))] = true
					if rng.Intn(4) == 0 {
						b.Delete([]byte(k))
						recs = append(recs, rec{k: k, del: true})
					} else {
						v := fmt.Sprintf("batch-%d-%d", phase, op)
						b.Put([]byte(k), []byte(v))
						recs = append(recs, rec{k: k, v: v})
					}
				}
				if len(shards) > 1 {
					crossBatches++
				}
				if err := db.Apply(&b, true); err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if r.del {
						delete(model, r.k)
					} else {
						model[r.k] = r.v
					}
				}
			default: // put
				k := key()
				v := fmt.Sprintf("v-%d-%d-%060d", phase, op, rng.Intn(1000))
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		}
		checkAll(fmt.Sprintf("phase %d", phase))

		// Every other phase: crash the whole store (all shards freeze at
		// one instant) and reopen from a
		// progressively harsher image.
		if phase%2 == 1 {
			var mode faultfs.CrashOpts
			var modeName string
			switch phase {
			case 1:
				mode, modeName = faultfs.CrashOpts{}, "clean"
			case 3:
				mode, modeName = faultfs.CrashOpts{KeepUnsynced: true}, "partial-sync"
			default:
				mode, modeName = faultfs.CrashOpts{KeepUnsynced: true, Torn: true}, "torn"
			}
			snap := fs.ForceCrash()
			_ = db.Close() // post-crash close may report the frozen fs
			dev := storage.New(clock.Real{}, storage.Null())
			img, err := snap.Materialize(dev, rng, mode)
			if err != nil {
				t.Fatalf("phase %d: materialize %s crash: %v", phase, modeName, err)
			}
			fs = newFFS(img, 54321+int64(phase))
			db, err = Open(modelOptions(fs))
			if err != nil {
				t.Fatalf("reopen after %s crash: %v", modeName, err)
			}
			checkAll(fmt.Sprintf("phase %d post-crash (%s)", phase, modeName))
		}
	}
	if crossBatches == 0 {
		t.Fatal("test never exercised a cross-shard batch")
	}
	db.Close()
}
