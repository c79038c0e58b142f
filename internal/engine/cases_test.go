package engine

import (
	"testing"
	"time"

	"xpointdb/internal/costmodel"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
	"xpointdb/internal/workload"
)

// simEnv builds a simulated DB environment for engine-level tests.
type simEnv struct {
	k   *sim.Kernel
	dev *storage.Device
	fs  *vfs.MemFS
	o   Options
}

func newSimEnv(profile storage.Profile, tweak func(*Options)) *simEnv {
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	dev := storage.New(k, profile)
	fs := vfs.NewMem(dev)
	o := DefaultOptions(fs)
	o.Clock = k
	o.CostModel = costmodel.Default()
	o.MemtableSize = 256 << 10
	o.TargetFileSize = 256 << 10
	o.BaseLevelBytes = 512 << 10
	if tweak != nil {
		tweak(&o)
	}
	return &simEnv{k: k, dev: dev, fs: fs, o: o}
}

// TestThrottleEngagesUnderWritePressure drives heavy writes on a
// bandwidth-starved device and verifies Algorithm 1 kicks in: stall
// delay accumulates and the write controller leaves the clear state.
func TestThrottleEngagesUnderWritePressure(t *testing.T) {
	prof := storage.XPoint().Scaled(64) // very slow background bandwidth
	env := newSimEnv(prof, func(o *Options) {
		o.L0SlowdownTrigger = 6
		o.L0StopTrigger = 12
	})
	var delayed int64
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer db.Close()
		res := workload.Run(env.k, db, workload.Config{
			Workers:   4,
			ReadRatio: 0.05,
			Duration:  8 * time.Second,
			KeySpace:  20000,
			ValueSize: 1024,
			Seed:      11,
		})
		if res.Errors > 0 {
			t.Errorf("workload errors: %d", res.Errors)
		}
		delayed = db.Metrics().StallDelayTotal.Load()
	})
	if delayed == 0 {
		t.Fatal("no throttle delay accumulated under heavy writes")
	}
}

// TestTwoStageKeepsHigherFloor compares worst-second throughput of the
// two throttle modes under the same bursty load (case study A).
func TestTwoStageKeepsHigherFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("minute-scale simulated workload is too slow under the race detector")
	}
	run := func(mode throttle.Mode) float64 {
		env := newSimEnv(storage.XPoint().Scaled(64), func(o *Options) {
			o.ThrottleMode = mode
			// A distant stop threshold keeps the comparison inside
			// the throttling regime: if L0 blows past the two-stage
			// midpoint (or the stop line), both controllers behave
			// identically and the comparison is vacuous.
			o.L0SlowdownTrigger = 6
			o.L0StopTrigger = 400
		})
		var min float64
		env.k.Run(func() {
			db, err := Open(env.o)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			defer db.Close()
			res := workload.Run(env.k, db, workload.Config{
				Workers:   4,
				ReadRatio: 0.5,
				Duration:  30 * time.Second,
				KeySpace:  20000,
				ValueSize: 1024,
				Seed:      5,
				Burst: &workload.BurstConfig{
					Period:         10 * time.Second,
					BurstLen:       4 * time.Second,
					BurstReadRatio: 0.05,
				},
			})
			min = res.Series.MinRate(2*time.Second, 29*time.Second)
		})
		return min
	}
	a1 := run(throttle.ModeAlgorithm1)
	ts := run(throttle.ModeTwoStage)
	t.Logf("worst-second: algorithm1=%.0f op/s, two-stage=%.0f op/s", a1, ts)
	// End-to-end the two controllers interleave with stop stalls and
	// compaction scheduling, so this asserts non-inferiority of the
	// worst second (the precise stage-1-floor > decayed-rate property
	// is asserted in the throttle unit tests, and the near-stop
	// removal is Figure 18's experiment).
	if ts < a1*0.75 {
		t.Fatalf("two-stage floor (%.0f) clearly below algorithm1 (%.0f)", ts, a1)
	}
}

// TestAdaptiveL0AdjustsBudget verifies case study B's controller moves
// the memtable budget with the observed mix: the configured size under
// write-heavy load (aggregate/24), four times it under read-heavy load
// (aggregate/6). Each phase spans two 2 s sampling windows.
func TestAdaptiveL0AdjustsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("minute-scale simulated workload is too slow under the race detector")
	}
	env := newSimEnv(storage.XPoint(), func(o *Options) { o.AdaptiveL0 = true })
	small, large := env.o.MemtableSize, 4*env.o.MemtableSize
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer db.Close()
		workload.Run(env.k, db, workload.Config{
			Workers: 2, ReadRatio: 0.05, Duration: 5 * time.Second,
			KeySpace: 5000, ValueSize: 1024, Seed: 1,
		})
		if got := db.MemtableBudget(); got != small {
			t.Errorf("write-heavy budget = %d, want %d", got, small)
		}
		workload.Run(env.k, db, workload.Config{
			Workers: 2, ReadRatio: 0.95, Duration: 5 * time.Second,
			KeySpace: 5000, ValueSize: 1024, Seed: 2,
		})
		if got := db.MemtableBudget(); got != large {
			t.Errorf("read-heavy budget = %d, want %d", got, large)
		}
	})
}

// TestAdaptiveL0CountsSnapshotReads: case study B classifies the load
// by every point read, snapshot reads included, so a load of snapshot
// reads alone is read-intensive and gets the few-large-files budget.
func TestAdaptiveL0CountsSnapshotReads(t *testing.T) {
	env := newSimEnv(storage.XPoint(), func(o *Options) { o.AdaptiveL0 = true })
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer db.Close()
		snap := db.NewSnapshot()
		defer snap.Release()
		for i := 0; i < 5000; i++ { // 5 s of virtual time: two windows
			if _, err := snap.Get(workload.Key(i % 100)); err != ErrNotFound {
				t.Errorf("snapshot get: %v", err)
				return
			}
			env.k.Sleep(time.Millisecond)
		}
		if got, want := db.MemtableBudget(), 4*env.o.MemtableSize; got != want {
			t.Errorf("snapshot-read budget = %d, want %d (read-intensive)", got, want)
		}
	})
}

// TestWALDeviceIsolation (case study C): WAL traffic goes to the WAL
// device; SST traffic goes to the data device.
func TestWALDeviceIsolation(t *testing.T) {
	env := newSimEnv(storage.XPoint(), nil)
	walDev := storage.New(env.k, storage.NVM())
	env.o.WALFS = vfs.NewMem(walDev)
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer db.Close()
		for i := 0; i < 2000; i++ {
			if err := db.Put(workload.Key(i), workload.Value(i, 1024)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	})
	if walDev.Stats().Writes == 0 {
		t.Fatal("WAL device idle")
	}
	if env.dev.Stats().Writes == 0 {
		t.Fatal("data device idle (flushes should land there)")
	}
}

// TestWaitingWritersGaugeRises: with many concurrent writers the
// time-weighted queue depth must be visible (Figure 16's metric).
func TestWaitingWritersGaugeRises(t *testing.T) {
	env := newSimEnv(storage.SATAFlash(), nil)
	var mean float64
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer db.Close()
		workload.Run(env.k, db, workload.Config{
			Workers: 16, ReadRatio: 0.5, Duration: 3 * time.Second,
			KeySpace: 5000, ValueSize: 1024, Seed: 9,
		})
		mean = db.Metrics().WaitingWriters.Mean()
	})
	if mean <= 0 {
		t.Fatalf("waiting-writers mean = %f", mean)
	}
}

// TestStopStallBlocksAndRecovers: with a tiny stop threshold, writes
// must stall (recording stop episodes) and still complete.
func TestStopStallBlocksAndRecovers(t *testing.T) {
	env := newSimEnv(storage.XPoint().Scaled(64), func(o *Options) {
		o.L0CompactionTrigger = 2
		o.L0SlowdownTrigger = 3
		o.L0StopTrigger = 4
		o.ThrottleMode = throttle.ModeNone // isolate the stop path
	})
	var stops int64
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer db.Close()
		for i := 0; i < 8000; i++ {
			if err := db.Put(workload.Key(i), workload.Value(i, 1024)); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		stops = db.Metrics().StallStops.Load()
	})
	if stops == 0 {
		t.Fatal("no stop stalls recorded despite tiny thresholds")
	}
}

// TestMemtableBudgetChangeTakesEffect: SetMemtableBudget applies at the
// next switch.
func TestMemtableBudgetChangeTakesEffect(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	db.SetMemtableBudget(32 << 10)
	// Fill past the new budget; the memtable must switch at ~32 KiB.
	for i := 0; i < 2000; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitForFlush(t, db)
	if f := db.Metrics().Flushes.Load(); f < 2 {
		t.Fatalf("expected several small flushes, got %d", f)
	}
}

// TestManualFlush: Flush rotates the memtable and drains immutables.
func TestManualFlush(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	if err := db.Flush(); err != nil {
		t.Fatalf("flush of empty db: %v", err)
	}
	if db.Metrics().Flushes.Load() != 0 {
		t.Fatal("empty flush wrote a file")
	}
	for i := 0; i < 50; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if db.Metrics().Flushes.Load() != 1 {
		t.Fatalf("flushes = %d, want 1", db.Metrics().Flushes.Load())
	}
	if db.NumLevelFiles(0) == 0 {
		t.Fatal("no L0 file after manual flush")
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d after flush: %v", i, err)
		}
	}
}

// TestManualFlushConcurrentWithWrites: Flush in the middle of a write
// storm must not lose or duplicate anything.
func TestManualFlushConcurrentWithWrites(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 1500; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if err := db.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
}

// TestMetricsReadPathCounters: hits land in the right bucket.
func TestMetricsReadPathCounters(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()
	db.Put([]byte("memkey"), []byte("v"))
	if _, err := db.Get([]byte("memkey")); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().GetHitMemtable.Load() != 1 {
		t.Fatal("memtable hit not counted")
	}
	if _, err := db.Get([]byte("absent")); err != ErrNotFound {
		t.Fatal(err)
	}
	if db.Metrics().GetMisses.Load() != 1 {
		t.Fatal("miss not counted")
	}
}
