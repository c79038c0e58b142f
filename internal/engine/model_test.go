package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// TestRandomOpsAgainstModel applies a long random sequence of puts,
// deletes, batched writes, flush-inducing fills, and reopens, checking
// the DB against an in-memory reference model after each phase. The DB
// runs on a faultfs so crash phases can exercise progressively nastier
// crash images: clean (synced data only), partial-sync (a random
// prefix of unsynced data survives), and torn (surviving unsynced
// bytes are bit-flipped). With SyncWAL=true every acknowledged write
// is synced, so the model must survive all three modes unchanged.
func TestRandomOpsAgainstModel(t *testing.T) {
	newFFS := func(inner *vfs.MemFS, seed int64) *faultfs.FS {
		t.Helper()
		ffs, err := faultfs.New(inner, clock.Real{}, seed)
		if err != nil {
			t.Fatalf("faultfs.New: %v", err)
		}
		return ffs
	}
	mem := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	fs := newFFS(mem, 12345)
	opts := DefaultOptions(fs)
	opts.MemtableSize = 32 << 10 // frequent flushes
	opts.TargetFileSize = 32 << 10
	opts.BaseLevelBytes = 64 << 10
	opts.ThrottleMode = throttle.ModeNone
	opts.SyncWAL = true
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(12345))

	checkAll := func(phase string) {
		t.Helper()
		// Point reads for every model key plus some absent keys.
		for k, want := range model {
			v, err := db.Get([]byte(k))
			if err != nil {
				t.Fatalf("%s: Get(%q) = %v\n%s", phase, k, err, db.DebugLayout())
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
		// Full scan must equal the sorted model.
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
		it.Close()
		if i != len(want) {
			t.Fatalf("%s: scan saw %d keys, model has %d", phase, i, len(want))
		}
	}

	key := func() string { return fmt.Sprintf("key-%04d", rng.Intn(400)) }

	for phase := 0; phase < 6; phase++ {
		for op := 0; op < 800; op++ {
			switch rng.Intn(10) {
			case 0, 1: // delete
				k := key()
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			case 2: // batch of mixed ops
				var b batch.Batch
				n := rng.Intn(10) + 1
				type rec struct {
					k, v string
					del  bool
				}
				var recs []rec
				for j := 0; j < n; j++ {
					k := key()
					if rng.Intn(4) == 0 {
						b.Delete([]byte(k))
						recs = append(recs, rec{k: k, del: true})
					} else {
						v := fmt.Sprintf("batch-%d-%d", phase, op)
						b.Put([]byte(k), []byte(v))
						recs = append(recs, rec{k: k, v: v})
					}
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

		// Every other phase: crash and reopen. Each crash phase uses a
		// harsher materialization mode; acknowledged data is synced
		// (SyncWAL=true), so even torn unsynced bytes must not change
		// what the model observes.
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
			fs = newFFS(img, 12345+int64(phase))
			opts := DefaultOptions(fs)
			opts.MemtableSize = 32 << 10
			opts.TargetFileSize = 32 << 10
			opts.BaseLevelBytes = 64 << 10
			opts.ThrottleMode = throttle.ModeNone
			opts.SyncWAL = true
			db, err = Open(opts)
			if err != nil {
				t.Fatalf("reopen after %s crash: %v", modeName, err)
			}
			checkAll(fmt.Sprintf("phase %d post-crash (%s)", phase, modeName))
		}
	}
	db.Close()
}
