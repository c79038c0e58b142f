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
// inside Kernel.Run: a writer issues synced cross-shard batches (both
// 2PC phases fan out to every participant) and MultiGets its keys while
// two readers MultiGet a fixed key set across every shard; then Close
// (which fans out too) and a reopen that reads everything back. Every
// read, on every run, must match the model exactly: the fan-outs are
// clock processes the kernel tracks, so virtual time cannot pass a
// participant that has not run, and the caller parks in the kernel
// while they do. (One writer: two concurrent cross-shard batches would
// contend on the coordinator's txnMu, a sync.Mutex held across the
// commit record's sync — a sleep the kernel cannot see past.)
func TestSimCrossShardFanOut(t *testing.T) {
	const batches, readers, reads = 150, 2, 40
	for run := 0; run < 3; run++ {
		env := simenv.New(storage.XPoint())
		opts := Options{Shards: 3, Engine: env.Options}
		opts.Engine.MemtableSize = 16 << 10 // flushes and compactions run under the batches
		opts.Engine.TargetFileSize = 16 << 10
		opts.Engine.BaseLevelBytes = 64 << 10

		// Keys 0-9 of every shard are written once and then only read;
		// keys 10-39 belong to the writer.
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
		env.Kernel.Run(func() {
			db, err := Open(opts)
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			b := new(batch.Batch)
			for s := 0; s < 3; s++ {
				for i := 0; i < 40; i++ {
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
			writerModel := map[string][]byte{} // read only by the writer until it is done
			clock.Parallel(env.Kernel, "client", 1+readers, func(c int) {
				if c > 0 {
					for i := 0; i < reads; i++ {
						check(db, fixed, model, fmt.Sprintf("reader %d, read %d", c, i))
					}
					return
				}
				rng := rand.New(rand.NewSource(int64(run)))
				for i := 0; i < batches; i++ {
					b := new(batch.Batch)
					ops := map[string][]byte{}
					for s := 0; s < 3; s++ {
						k := shardKey(s, db, 10+rng.Intn(30))
						if rng.Intn(5) == 0 {
							b.Delete(k)
							ops[string(k)] = nil
						} else {
							v := bytes.Repeat([]byte(fmt.Sprintf("b%03d-s%d;", i, s)), 16)
							b.Put(k, v)
							ops[string(k)] = v
						}
					}
					if err := db.Apply(b, true); err != nil {
						t.Errorf("run %d: Apply batch %d: %v", run, i, err)
						return
					}
					for k, v := range ops {
						if v == nil {
							delete(writerModel, k)
						} else {
							writerModel[k] = v
						}
					}
					if i%25 == 24 {
						check(db, written, writerModel, fmt.Sprintf("after batch %d", i))
					}
				}
			})
			for k, v := range writerModel {
				model[k] = v
			}
			if cross, _, _, _ := db.TxnStats(); cross != batches+1 {
				t.Errorf("run %d: %d cross-shard commits, want %d", run, cross, batches+1)
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
