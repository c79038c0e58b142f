package sim

import (
	"runtime"
	"sync"
)

// Each calls fn(0), …, fn(n-1) on host goroutines, at most GOMAXPROCS
// at a time, and returns when every call has. It is how independent
// simulations use more than one core: a Kernel runs one process at a
// time, so one simulation keeps one core busy. Each call must build
// its own Kernel and share nothing with the others; the order in which
// calls start and finish is the Go scheduler's.
func Each(n int, fn func(i int)) {
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-slots
				wg.Done()
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
}
