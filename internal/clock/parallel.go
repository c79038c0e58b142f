package clock

// Parallel runs fn(0) … fn(n-1), each as a process of clk started with
// Go, and returns once every one has finished. The wait is on a Mutex
// and Cond made by clk, so under a simulated clock the caller parks in
// the kernel's books while the processes run — the fan-out a go
// statement plus sync.WaitGroup would hide from the kernel. A nil clk
// means real time.
func Parallel(clk Clock, name string, n int, fn func(i int)) {
	if clk == nil {
		clk = Real{}
	}
	m := clk.NewMutex()
	done := clk.NewCond(m)
	remaining := n
	for i := 0; i < n; i++ {
		clk.Go(name, func() {
			fn(i)
			m.Lock()
			remaining--
			if remaining == 0 {
				done.Broadcast()
			}
			m.Unlock()
		})
	}
	m.Lock()
	for remaining > 0 {
		done.Wait()
	}
	m.Unlock()
}
