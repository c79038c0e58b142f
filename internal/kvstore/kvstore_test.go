package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
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
			ffs, err := faultfs.New(vfs.NewMem(storage.New(clock.Real{}, storage.Null())), 1)
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
			if !strings.Contains(st.StatsReport(), "compaction mech:") {
				t.Error("StatsReport lacks the engine report")
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
