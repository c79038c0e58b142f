package kvstore

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// TestStoreContract drives the bare engine and a 3-shard store through
// Open and the Store method set alone: what every program written
// against the seam relies on.
func TestStoreContract(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ffs, err := faultfs.New(vfs.NewMem(storage.New(clock.Real{}, storage.Null())), clock.Real{}, 1)
			if err != nil {
				t.Fatalf("faultfs.New: %v", err)
			}
			opts := engine.DefaultOptions(ffs)
			opts.ThrottleMode = throttle.ModeNone
			opts.SyncWAL = true
			opts.DisableAutoRecovery = true // the latch must wait for Resume
			st, err := Open(opts, shards, nil)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if got := len(st.Engines()); got != shards {
				t.Fatalf("len(Engines()) = %d, want %d", got, shards)
			}

			// One Options, one cache rule on both stores: BlockCacheSize 0
			// is no cache and no block-cache families, the default a cache.
			for _, size := range []int64{0, opts.BlockCacheSize} {
				o := engine.DefaultOptions(vfs.NewMem(storage.New(clock.Real{}, storage.Null())))
				o.BlockCacheSize = size
				cs, err := Open(o, shards, nil)
				if err != nil {
					t.Fatalf("Open(BlockCacheSize %d): %v", size, err)
				}
				var scrape strings.Builder
				cs.(interface{ WritePrometheus(io.Writer) }).WritePrometheus(&scrape)
				if got := strings.Contains(scrape.String(), "xpointdb_block_cache_used_bytes"); got != (size > 0) {
					t.Errorf("BlockCacheSize %d: block-cache families exported = %v", size, got)
				}
				if err := cs.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}

			// One key per uniform-boundary range, so the 3-shard store
			// touches every shard and the batch below is cross-shard.
			keys := [][]byte{[]byte("A-low"), []byte("k-mid"), []byte("\xe0-high")}
			for _, k := range keys {
				if err := st.Put(k, []byte("v1")); err != nil {
					t.Fatalf("Put(%q): %v", k, err)
				}
			}
			if err := st.Delete(keys[0]); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := st.Get(keys[0]); !errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
			}
			b := &batch.Batch{}
			b.Put(keys[0], []byte("v2"))
			b.Put(keys[2], []byte("v2"))
			b.Delete(keys[1])
			if err := st.Apply(b, true); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if err := st.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			for _, k := range [][]byte{keys[0], keys[2]} {
				if v, err := st.Get(k); err != nil || string(v) != "v2" {
					t.Fatalf("Get(%q) after Apply+Flush = (%q, %v), want v2", k, v, err)
				}
			}
			if _, err := st.Get(keys[1]); !errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("Get(%q) after the batch deleted it = %v, want ErrNotFound", keys[1], err)
			}
			if !strings.Contains(st.StatsReport(), "\nxpointdb_write_ops_total ") {
				t.Error("StatsReport lacks the rendered metrics section")
			}

			// Latch a hard error on the engine owning keys[1]: one WAL
			// sync fault, plus a persistent WAL-create fault so recovery
			// keeps failing until the rules are cleared.
			wal := "*.log"
			if shards > 1 {
				wal = "shard-001/*.log"
			}
			ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: wal, FailNTimes: 1})
			ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpCreate}, Path: wal})
			if err := st.Put(keys[1], []byte("v3")); err == nil {
				t.Fatal("Put during the sync fault succeeded")
			}
			if st.Health() == engine.Healthy || st.BackgroundError() == nil {
				t.Fatalf("no latch: health=%v bgErr=%v", st.Health(), st.BackgroundError())
			}
			err = st.Resume()
			if !errors.Is(err, engine.ErrHardError) {
				t.Fatalf("Resume while the fault persists = %v, want the latched hard error", err)
			}
			if shards > 1 && !strings.Contains(err.Error(), "shard 1") {
				t.Fatalf("Resume error %q does not name shard 1", err)
			}
			ffs.ClearRules()
			if err := st.Resume(); err != nil {
				t.Fatalf("Resume after the fault cleared: %v", err)
			}
			if h := st.Health(); h != engine.Healthy {
				t.Fatalf("Health after Resume = %v", h)
			}
			if err := st.Put(keys[1], []byte("v3")); err != nil {
				t.Fatalf("Put after Resume: %v", err)
			}

			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := st.Apply(b, false); !errors.Is(err, engine.ErrClosed) {
				t.Fatalf("Apply after Close = %v, want ErrClosed", err)
			}
			if err := st.Close(); !errors.Is(err, engine.ErrClosed) {
				t.Fatalf("second Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestSharedSeam pins what an engine takes from the Shared it opened
// in, on a set of one and a set of three: the shard tag of its events
// (none on the bare store, 1..N across shards), one rate_change event
// per Algorithm 1 step with no tag at all, a stall vote at the one
// controller that closing the engine withdraws, and an ops plane only
// the store's own Close takes down.
func TestSharedSeam(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sink := &events.Buffer{}
			opts := engine.DefaultOptions(vfs.NewMem(storage.New(clock.Real{}, storage.Null())))
			opts.ThrottleMode = throttle.ModeNone // stall states are voted, no write is delayed
			opts.L0CompactionTrigger = 100        // Level-0 files stay where flushes put them
			opts.L0SlowdownTrigger = 2
			opts.EventListener = sink
			opts.ObsAddr = "127.0.0.1:0"
			st, err := Open(opts, shards, nil)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			sh, addr := st.Shared(), st.ObsAddr()
			serving := func() bool {
				c := http.Client{Timeout: 2 * time.Second}
				resp, err := c.Get("http://" + addr + "/healthz")
				if err != nil {
					return false
				}
				resp.Body.Close()
				return true
			}

			// A flush in every engine, then a second one only where
			// k-mid lives: that engine alone reaches the slowdown line.
			keys := [][]byte{[]byte("A-low"), []byte("k-mid"), []byte("\xe0-high")}
			for _, round := range [][][]byte{keys, keys[1:2]} {
				for _, k := range round {
					if err := st.Put(k, []byte("v")); err != nil {
						t.Fatalf("Put(%q): %v", k, err)
					}
				}
				if err := st.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
			}
			hot := st.Engines()[shards/2]
			if l0 := hot.NumLevelFiles(0); l0 != 2 {
				t.Fatalf("engine %d holds %d Level-0 files, want 2", shards/2, l0)
			}
			if s := sh.Controller.CurrentState(); s != throttle.StateDelayed {
				t.Fatalf("controller state = %v with one engine at the slowdown line, want delayed", s)
			}
			sh.Controller.AdjustRate(true)
			sh.Controller.AdjustRate(false)
			sh.Plane.Sync()

			tags, rateChanges := map[int]bool{}, int64(0)
			for _, e := range sink.Events() {
				switch {
				case e.Kind != events.KindRateChange:
					tags[e.Shard] = true
				case e.Shard != 0:
					t.Errorf("rate_change carries shard %d: the rate is the whole set's", e.Shard)
				default:
					rateChanges++
				}
			}
			if _, _, steps := sh.Controller.Stats(); rateChanges != steps || steps < 2 {
				t.Errorf("%d rate_change events for %d Algorithm 1 steps", rateChanges, steps)
			}
			want := map[int]bool{0: true}
			if shards > 1 {
				want = map[int]bool{1: true, 2: true, 3: true}
			}
			if fmt.Sprint(tags) != fmt.Sprint(want) {
				t.Errorf("events carry shard tags %v, want %v", tags, want)
			}

			if !serving() {
				t.Fatal("the ops plane does not answer on the open store")
			}
			if err := hot.Close(); err != nil {
				t.Fatalf("close engine %d: %v", shards/2, err)
			}
			if s := sh.Controller.CurrentState(); s != throttle.StateClear {
				t.Errorf("controller state = %v after the stalled engine closed, want clear", s)
			}
			if shards > 1 {
				if !serving() {
					t.Error("closing one shard took the shared ops plane down")
				}
				// The store reports the shard it found closed, and closes the rest.
				if err := st.Close(); !errors.Is(err, engine.ErrClosed) {
					t.Fatalf("Close: %v", err)
				}
			}
			if serving() {
				t.Error("the ops plane still answers after the store closed")
			}
		})
	}
}
