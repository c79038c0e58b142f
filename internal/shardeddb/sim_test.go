package shardeddb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/simenv"
	"xpointdb/internal/storage"
)

// TestSimCrossShardFanOut runs a 3-shard store on simulated 3D XPoint
// inside Kernel.Run: writers, each on its own slice of every shard's
// keys, issue synced cross-shard batches (both 2PC phases fan out to
// every participant, and concurrent batches contend for the commit
// path) and read their own keys back every 10 batches, while two
// readers MultiGet a fixed key set across every shard; then Close
// (which fans out too) and a reopen that reads everything back. Every
// read, on every run, must match the model exactly: the fan-outs are
// clock processes the kernel tracks, so virtual time cannot pass a
// participant that has not run, and the caller parks in the kernel
// while they do. A wall-clock deadline guards Kernel.Run: a lock held
// across a sleep the kernel cannot see past hangs the run instead of
// failing it. Both cases run with pipelined writes (the default): a
// writer's read of its own keys also checks that Apply returns only
// once its group is visible, though another writer's earlier group may
// still be inserting.
func TestSimCrossShardFanOut(t *testing.T) {
	const readers, reads = 2, 40
	for _, writers := range []int{1, 3} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			for run := 0; run < 3; run++ {
				simCrossShardRun(t, run, writers, readers, reads)
			}
		})
	}
}

// simCrossShardRun is one run of TestSimCrossShardFanOut: 150 batches
// split across the writers.
func simCrossShardRun(t *testing.T, run, writers, readers, reads int) {
	batches, span := 150/writers, 30/writers
	env := simenv.New(storage.XPoint())
	opts := Options{Shards: 3, Engine: env.Options}
	opts.Engine.MemtableSize = 16 << 10 // flushes and compactions run under the batches
	opts.Engine.TargetFileSize = 16 << 10
	opts.Engine.BaseLevelBytes = 64 << 10

	// Keys 0-9 of every shard are written once and then only read;
	// writer w owns the span keys from 10+span*w.
	model := map[string][]byte{}
	var fixed, written [][]byte
	check := func(db *DB, keys [][]byte, model map[string][]byte, when string) {
		values, errs := db.MultiGet(keys...)
		for i, k := range keys {
			want, live := model[string(k)]
			switch {
			case live && (errs[i] != nil || !bytes.Equal(values[i], want)):
				t.Errorf("run %d, %s: MultiGet(%q) = (%q, %v), want %q", run, when, k, values[i], errs[i], want)
			case !live && errs[i] != ErrNotFound:
				t.Errorf("run %d, %s: MultiGet(%q) = (%q, %v), want ErrNotFound", run, when, k, values[i], errs[i])
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		env.Kernel.Run(func() {
			db, err := Open(opts)
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			b := new(batch.Batch)
			for s := 0; s < 3; s++ {
				for i := 0; i < 10+span*writers; i++ {
					k := shardKey(s, db, i)
					if i >= 10 {
						written = append(written, k)
						continue
					}
					fixed = append(fixed, k)
					model[string(k)] = []byte(fmt.Sprintf("fixed-%d-%d", s, i))
					b.Put(k, model[string(k)])
				}
			}
			if err := db.Apply(b, true); err != nil {
				t.Errorf("run %d: Apply the fixed keys: %v", run, err)
				return
			}
			// Each writer's model is read only by that writer until the
			// clients are done.
			writerModels := make([]map[string][]byte, writers)
			clock.Parallel(env.Kernel, "client", writers+readers, func(c int) {
				if c >= writers {
					for i := 0; i < reads; i++ {
						check(db, fixed, model, fmt.Sprintf("reader %d, read %d", c, i))
					}
					return
				}
				writerModel := map[string][]byte{}
				writerModels[c] = writerModel
				var mine [][]byte
				for s := 0; s < 3; s++ {
					for i := 0; i < span; i++ {
						mine = append(mine, shardKey(s, db, 10+span*c+i))
					}
				}
				rng := rand.New(rand.NewSource(int64(run + 10*c)))
				for i := 0; i < batches; i++ {
					b := new(batch.Batch)
					ops := map[string][]byte{}
					for s := 0; s < 3; s++ {
						k := shardKey(s, db, 10+span*c+rng.Intn(span))
						if rng.Intn(5) == 0 {
							b.Delete(k)
							ops[string(k)] = nil
						} else {
							v := bytes.Repeat([]byte(fmt.Sprintf("w%d-b%03d-s%d;", c, i, s)), 16)
							b.Put(k, v)
							ops[string(k)] = v
						}
					}
					if err := db.Apply(b, true); err != nil {
						t.Errorf("run %d: writer %d, Apply batch %d: %v", run, c, i, err)
						return
					}
					for k, v := range ops {
						if v == nil {
							delete(writerModel, k)
						} else {
							writerModel[k] = v
						}
					}
					if i%10 == 9 {
						check(db, mine, writerModel, fmt.Sprintf("writer %d, after batch %d", c, i))
					}
				}
			})
			for _, m := range writerModels {
				for k, v := range m {
					model[k] = v
				}
			}
			if cross, _, _, _ := db.TxnStats(); cross != int64(writers*batches+1) {
				t.Errorf("run %d: %d cross-shard commits, want %d", run, cross, writers*batches+1)
			}
			if err := db.Close(); err != nil {
				t.Errorf("run %d: Close: %v", run, err)
				return
			}
			db, err = Open(opts)
			if err != nil {
				t.Errorf("run %d: reopen: %v", run, err)
				return
			}
			check(db, append(fixed, written...), model, "after reopen")
			if err := db.Close(); err != nil {
				t.Errorf("run %d: second Close: %v", run, err)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("run %d: Kernel.Run has not returned after 30 s of wall time: the cross-shard writers hang the kernel", run)
	}
}

// TestSimFanOutRunsInParallel pins what the kernel-tracked fan-outs
// buy in virtual time on a quiet 3-shard store: a synced 3-shard batch
// costs one prepare round, one commit record and one apply round — its
// participants sync side by side, so well under 4 single-shard synced
// writes — and a MultiGet over 3 shards costs about one Get. A fan-out
// the kernel cannot see lets virtual time run ahead while participants
// have not run, which charges them one after another.
func TestSimFanOutRunsInParallel(t *testing.T) {
	env := simenv.New(storage.XPoint())
	opts := Options{Shards: 3, Engine: env.Options}
	opts.Engine.DisableScrub = true
	env.Kernel.Run(func() {
		db, err := Open(opts)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		defer db.Close()
		elapsed := func(op func() error) time.Duration {
			t0 := env.Kernel.Now()
			if err := op(); err != nil {
				t.Errorf("op: %v", err)
			}
			return env.Kernel.Now().Sub(t0)
		}
		var put, cross, get, multiGet time.Duration
		for i := 0; i < 20; i++ {
			keys := [][]byte{shardKey(0, db, i), shardKey(1, db, i), shardKey(2, db, i)}
			put += elapsed(func() error { return db.Apply(batchOf(keys[:1]), true) })
			cross += elapsed(func() error { return db.Apply(batchOf(keys), true) })
			get += elapsed(func() error { _, err := db.Get(keys[0]); return err })
			multiGet += elapsed(func() error { _, errs := db.MultiGet(keys...); return errors.Join(errs...) })
		}
		if cross >= 4*put {
			t.Errorf("a synced 3-shard batch takes %v, a synced single-shard write %v: the participants did not run side by side", cross/20, put/20)
		}
		if multiGet >= 2*get {
			t.Errorf("a 3-shard MultiGet takes %v, one Get %v: the lookups did not run side by side", multiGet/20, get/20)
		}
	})
}

func batchOf(keys [][]byte) *batch.Batch {
	b := new(batch.Batch)
	for _, k := range keys {
		b.Put(k, []byte("v"))
	}
	return b
}
