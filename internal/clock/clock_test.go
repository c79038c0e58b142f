package clock

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	var c Real
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatal("Now is in the past")
	}
	m := c.NewMutex()
	m.Lock()
	m.Unlock()
	cond := c.NewCond(m)

	done := false
	c.Go("worker", func() {
		m.Lock()
		done = true
		cond.Signal()
		m.Unlock()
	})
	m.Lock()
	for !done {
		cond.Wait()
	}
	m.Unlock()
}

// TestRealNow: Real.Now starts at the wall time, never runs backwards
// across goroutines, and carries a monotonic reading, so it subtracts
// exactly against time.Now in both directions.
func TestRealNow(t *testing.T) {
	var c Real
	if d := c.Now().Round(0).Sub(time.Now().Round(0)); d < -time.Second || d > time.Second {
		t.Fatalf("Now's wall time is %v off time.Now's", d)
	}

	var mu sync.Mutex
	var last time.Time
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				mu.Lock()
				now := c.Now()
				if now.Before(last) {
					t.Errorf("Now went back from %v to %v", last, now)
				}
				last = now
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	const d = 5 * time.Millisecond
	std := time.Now()
	time.Sleep(d)
	now := c.Now()
	time.Sleep(d)
	if got := now.Sub(std); got < d || got > d+time.Second {
		t.Fatalf("Real.Now - time.Now = %v after sleeping %v", got, d)
	}
	if got := time.Now().Sub(now); got < d || got > d+time.Second {
		t.Fatalf("time.Now - Real.Now = %v after sleeping %v", got, d)
	}
	if !strings.Contains(now.String(), " m=+") {
		t.Fatalf("Real.Now has no monotonic reading: %v", now)
	}
}

func TestPreciseSleepAccuracy(t *testing.T) {
	for _, d := range []time.Duration{0, 10 * time.Microsecond, 200 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		PreciseSleep(d)
		got := time.Since(start)
		if got < d {
			t.Fatalf("slept %v for request %v (early wake)", got, d)
		}
		// Generous upper bound: loaded CI boxes overshoot.
		if d > 0 && got > d+50*time.Millisecond {
			t.Fatalf("slept %v for request %v", got, d)
		}
	}
}

func TestPreciseSleepNegative(t *testing.T) {
	start := time.Now()
	PreciseSleep(-time.Second)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("negative sleep slept")
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	var c Real
	s := NewSemaphore(c, 2)
	var mu sync.Mutex
	cur, max := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Acquire()
			mu.Lock()
			cur++
			if cur > max {
				max = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			s.Release()
		}()
	}
	wg.Wait()
	if max > 2 {
		t.Fatalf("observed %d concurrent holders with capacity 2", max)
	}
	if s.Waiters() != 0 {
		t.Fatalf("waiters leaked: %d", s.Waiters())
	}
}

func TestSemaphorePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSemaphore(Real{}, 0)
}
