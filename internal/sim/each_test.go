package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce checks Each calls fn once per index, never
// more than GOMAXPROCS at a time, and returns only after every call.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 20
	var mu sync.Mutex
	calls := make([]int, n)
	running, peak := 0, 0
	Each(n, func(i int) {
		mu.Lock()
		calls[i]++
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
	})
	for i, c := range calls {
		if c != 1 {
			t.Errorf("index %d called %d times", i, c)
		}
	}
	if running != 0 {
		t.Errorf("Each returned with %d calls still running", running)
	}
	if max := runtime.GOMAXPROCS(0); peak > max {
		t.Errorf("%d calls ran at once, GOMAXPROCS is %d", peak, max)
	}
}

// TestEachKernelsReplay runs the same small simulation in several
// kernels at once: each must end at the same virtual time with the
// same order of events as the others.
func TestEachKernelsReplay(t *testing.T) {
	const n = 6
	traces := make([]string, n)
	Each(n, func(i int) {
		k := New(t0)
		var trace []byte
		k.Run(func() {
			m := k.NewMutex()
			c := k.NewCond(m)
			left := 3
			for p := 0; p < 3; p++ {
				name := byte('a' + p)
				k.Go(string(name), func() {
					for step := 0; step < 4; step++ {
						k.Sleep(time.Duration(1+int(name-'a')) * time.Microsecond)
						trace = append(trace, name)
					}
					m.Lock()
					left--
					if left == 0 {
						c.Broadcast()
					}
					m.Unlock()
				})
			}
			m.Lock()
			for left > 0 {
				c.Wait()
			}
			m.Unlock()
		})
		traces[i] = string(trace) + " " + k.Elapsed().String()
	})
	for i := 1; i < n; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("kernel %d: %q, kernel 0: %q", i, traces[i], traces[0])
		}
	}
}
