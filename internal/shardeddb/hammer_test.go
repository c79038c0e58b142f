package shardeddb

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"xpointdb/internal/batch"
	"xpointdb/internal/obs"
)

// TestShardHammerWithLiveScraper drives every concurrent surface of
// the sharded store at once — per-shard writers, cross-shard 2PC
// batches, point readers, full cross-shard iterators, snapshots,
// manual flushes — while a scraper loops over the live HTTP /metrics
// endpoint, strictly parsing every response. Run under -race (make
// tier2) this is the data-race probe for the shared cache, shared
// pool, shared controller, event tagging, and the 2PC pending set.
func TestShardHammerWithLiveScraper(t *testing.T) {
	const shards = 4
	db, _ := newTestStore(t, shards, func(o *Options) {
		o.Engine.ObsAddr = "127.0.0.1:0"
		o.Engine.BlockCacheSize = 1 << 20
		o.PoolSlots = 2 // contended on purpose
	})
	defer db.Close()

	addr := db.ObsAddr()
	if addr == "" {
		t.Fatal("ObsAddr empty with ObsAddr option set")
	}
	base := "http://" + addr

	ops := 400
	if testing.Short() {
		ops = 80
	}

	var (
		wg        sync.WaitGroup // every goroutine
		writersWg sync.WaitGroup // bounded producers only
		done      atomic.Bool
		writeErr  atomic.Value
	)
	fail := func(err error) {
		if err != nil {
			writeErr.CompareAndSwap(nil, err)
		}
	}

	// Per-shard writers.
	for s := 0; s < shards; s++ {
		wg.Add(1)
		writersWg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer writersWg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < ops; i++ {
				k := shardKey(s, db, rng.Intn(200))
				if err := db.Put(k, bytes.Repeat([]byte{byte(i)}, 256)); err != nil {
					fail(fmt.Errorf("writer %d: %w", s, err))
					return
				}
			}
		}(s)
	}

	// Cross-shard 2PC writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		writersWg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersWg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < ops/4; i++ {
				var b batch.Batch
				for j := 0; j < 3; j++ {
					s := rng.Intn(shards)
					b.Put(shardKey(s, db, 500+rng.Intn(50)), []byte(fmt.Sprintf("x-%d-%d", w, i)))
				}
				if err := db.Apply(&b, i%2 == 0); err != nil {
					fail(fmt.Errorf("cross writer %d: %w", w, err))
					return
				}
			}
		}(w)
	}

	// Point readers (misses are fine; errors are not).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for !done.Load() {
				s := rng.Intn(shards)
				_, err := db.Get(shardKey(s, db, rng.Intn(600)))
				if err != nil && err != ErrNotFound {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
			}
		}(r)
	}

	// Cross-shard iterator + snapshot churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			it, err := db.NewIter()
			if err != nil {
				fail(fmt.Errorf("iter open: %w", err))
				return
			}
			n := 0
			for it.SeekToFirst(); it.Valid() && n < 500; it.Next() {
				if isInternalKey(it.Key()) {
					fail(fmt.Errorf("iterator leaked internal key %q", it.Key()))
				}
				n++
			}
			fail(it.Error())
			it.Close()

			snap, err := db.NewSnapshot()
			if err != nil {
				fail(fmt.Errorf("snapshot: %w", err))
				return
			}
			_, gerr := snap.Get(shardKey(0, db, 0))
			if gerr != nil && gerr != ErrNotFound {
				fail(fmt.Errorf("snapshot get: %w", gerr))
			}
			snap.Release()
		}
	}()

	// Flusher keeps background machinery churning through the shared pool.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10 && !done.Load(); i++ {
			if err := db.Flush(); err != nil {
				fail(fmt.Errorf("flush: %w", err))
				return
			}
		}
	}()

	// Live /metrics scraper: every response must parse strictly and
	// carry the per-shard families.
	scrapes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				fail(fmt.Errorf("GET /metrics: %w", err))
				return
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				fail(fmt.Errorf("read /metrics: %w", rerr))
				return
			}
			fams, perr := obs.ParsePromText(bytes.NewReader(body))
			if perr != nil {
				fail(fmt.Errorf("scrape %d failed strict parse: %w", scrapes, perr))
				return
			}
			// Every shard must be on every scrape: its label is how the
			// engine families are told apart.
			seen := map[string]bool{}
			for _, f := range fams {
				for _, s := range f.Samples {
					if shard, ok := s.Labels["shard"]; ok {
						seen[shard] = true
					}
				}
			}
			if len(seen) != shards {
				fail(fmt.Errorf("scrape %d carries shard labels %v, want %d shards", scrapes, seen, shards))
				return
			}
			scrapes++
		}
	}()

	// Once the bounded writers finish, stop the open-ended loops.
	writersWg.Wait()
	done.Store(true)
	wg.Wait()

	if err, _ := writeErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if scrapes == 0 {
		t.Fatal("scraper never completed a scrape")
	}
	// The store must still be coherent after the storm.
	if err := db.BackgroundError(); err != nil {
		t.Fatalf("background error after hammer: %v", err)
	}
	var buf bytes.Buffer
	db.WritePrometheus(&buf)
	if _, err := obs.ParsePromText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("final exposition unparseable: %v", err)
	}
	t.Logf("hammer done: %d scrapes", scrapes)
}
