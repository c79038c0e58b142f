package throttle

import (
	"testing"
	"time"

	"xpointdb/internal/sim"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestNoDelayWhenClear(t *testing.T) {
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeAlgorithm1})
	k.Run(func() {
		for i := 0; i < 100; i++ {
			if d := c.Delay(1024); d != 0 {
				t.Errorf("delay %v while clear", d)
			}
		}
	})
	if k.Elapsed() != 0 {
		t.Fatalf("time advanced while clear: %v", k.Elapsed())
	}
}

func TestModeNoneNeverDelays(t *testing.T) {
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeNone})
	c.SetState(StateDelayed)
	k.Run(func() {
		if d := c.Delay(1 << 20); d != 0 {
			t.Errorf("ModeNone delayed %v", d)
		}
	})
}

func TestDelayedWritesPayRefillInterval(t *testing.T) {
	// With a small batch and default 16 MiB/s rate, Algorithm 1's
	// DELAYWRITE returns exactly refill_interval for back-to-back
	// writes (the regime of Analysis #1).
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeAlgorithm1})
	c.SetState(StateDelayed)
	var total time.Duration
	k.Run(func() {
		for i := 0; i < 10; i++ {
			total += c.Delay(1024)
		}
	})
	if total == 0 {
		t.Fatal("no delay applied while delayed")
	}
	// Average per-op delay should be near the refill interval scaled
	// by how many ops one refill pays for (16 MiB/s × 1024 µs ≈ 16
	// KiB per refill ⇒ most 1 KiB ops ride free, ~1/16 pay 1024 µs).
	if total > 15*RefillInterval {
		t.Fatalf("delays too large: %v", total)
	}
}

func TestAnalysis1ThroughputCollapse(t *testing.T) {
	// Reproduce the paper's Analysis #1: once throttling engages with
	// a collapsed rate, application throughput falls to roughly
	// t/(refill+t)·λs regardless of device speed.
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeAlgorithm1, DelayedWriteRate: 16 << 20})
	c.SetState(StateDelayed)
	// Decay the rate as a lagging compaction would.
	for i := 0; i < 60; i++ {
		c.AdjustRate(true)
	}
	if c.Rate() > 1<<20+1 {
		t.Fatalf("rate should clamp at the floor, got %.0f", c.Rate())
	}

	var ops int
	k.Run(func() {
		end := t0.Add(2 * time.Second)
		for k.Now().Before(end) {
			c.Delay(1024)                  // throttle
			k.Sleep(15 * time.Microsecond) // the op itself (t)
			ops++
		}
	})
	opsPerSec := float64(ops) / 2
	// With rate = 1 MiB/s and 1 KiB writes: one refill (1024 µs)
	// covers ~1 op, so each op waits ~1 ms ⇒ ~1 kop/s per thread.
	if opsPerSec < 500 || opsPerSec > 2500 {
		t.Fatalf("throttled throughput = %.0f op/s, want ≈1000", opsPerSec)
	}
	t.Logf("throttled single-thread throughput: %.0f op/s", opsPerSec)
}

func TestAdjustRateBounds(t *testing.T) {
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeAlgorithm1, DelayedWriteRate: 16 << 20})
	for i := 0; i < 1000; i++ {
		c.AdjustRate(true)
	}
	if c.Rate() < 1<<20 {
		t.Fatalf("rate below floor: %f", c.Rate())
	}
	for i := 0; i < 10000; i++ {
		c.AdjustRate(false)
	}
	if c.Rate() > 1<<30 {
		t.Fatalf("rate above ceiling: %f", c.Rate())
	}
}

func TestRateRestoredWhenStallEnds(t *testing.T) {
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeAlgorithm1, DelayedWriteRate: 16 << 20})
	c.SetState(StateDelayed)
	for i := 0; i < 20; i++ {
		c.AdjustRate(true)
	}
	low := c.Rate()
	if low >= 16<<20 {
		t.Fatal("rate did not decay")
	}
	c.SetState(StateClear)
	if c.Rate() != 16<<20 {
		t.Fatalf("rate not restored: %f", c.Rate())
	}
}

func TestTwoStageFloorInStage1(t *testing.T) {
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeTwoStage, DelayedWriteRate: 16 << 20})
	// Decay the adaptive rate far below the floor.
	c.SetState(StateDelayed)
	for i := 0; i < 60; i++ {
		c.AdjustRate(true)
	}

	// Stage 1 (StateDelayed): delays computed at ≥ floor rate.
	var stage1 time.Duration
	k.Run(func() {
		for i := 0; i < 200; i++ {
			stage1 += c.Delay(4096)
		}
	})

	// Stage 2 (StateAggressive): full Algorithm 1 at the decayed rate.
	k2 := sim.New(t0)
	c2 := New(k2, Config{Mode: ModeTwoStage, DelayedWriteRate: 16 << 20})
	c2.SetState(StateAggressive)
	for i := 0; i < 60; i++ {
		c2.AdjustRate(true)
	}
	var stage2 time.Duration
	k2.Run(func() {
		for i := 0; i < 200; i++ {
			stage2 += c2.Delay(4096)
		}
	})
	if stage1 >= stage2 {
		t.Fatalf("stage1 (%v) should throttle less than stage2 (%v)", stage1, stage2)
	}
}

func TestStoppedStateDoesNotDelay(t *testing.T) {
	// Stops are handled by the engine blocking writes; the controller
	// itself must not add token delays on top.
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeAlgorithm1})
	c.SetState(StateStopped)
	k.Run(func() {
		if d := c.Delay(1024); d != 0 {
			t.Errorf("delay during stop: %v", d)
		}
	})
}

func TestStatsAccumulate(t *testing.T) {
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeAlgorithm1, DelayedWriteRate: 1 << 20})
	c.SetState(StateDelayed)
	k.Run(func() {
		for i := 0; i < 50; i++ {
			c.Delay(64 << 10)
		}
	})
	total, ops, _ := c.Stats()
	if total == 0 || ops == 0 {
		t.Fatalf("stats empty: %v %d", total, ops)
	}
}

func TestLargeWritePaysProportionalDelay(t *testing.T) {
	k := sim.New(t0)
	c := New(k, Config{Mode: ModeAlgorithm1, DelayedWriteRate: 1 << 20})
	c.SetState(StateDelayed)
	var d time.Duration
	k.Run(func() {
		c.Delay(1024)        // consume any initial credit
		d = c.Delay(4 << 20) // 4 MiB at 1 MiB/s ≈ 4 s
	})
	if d < 2*time.Second || d > 6*time.Second {
		t.Fatalf("large write delay = %v, want ≈4s", d)
	}
}
