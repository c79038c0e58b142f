// Package sim implements a process-oriented discrete-event simulation
// kernel that satisfies clock.Clock.
//
// Every goroutine participating in the simulation is a "process" that
// the kernel tracks, and exactly one process runs at a time: it holds
// the kernel's run token. A process gives the token up only at a
// blocking point — Sleep, Cond.Wait, a contended Mutex.Lock, or its
// exit — and the token passes to the oldest runnable process. Virtual
// time jumps to the earliest pending timer only when no process is
// runnable; the processes whose timers fall due at that instant become
// runnable in the order their timers were created. Processes therefore
// execute arbitrary amounts of Go code in zero virtual time; durations
// are charged explicitly via Sleep, which is how device models and CPU
// cost models express service times. Because the kernel, not the Go
// scheduler, decides every ordering, a seeded run replays exactly and
// the host's core count does not shape the model.
//
// Rules for code running under the kernel:
//
//   - Spawn concurrent work with Clock.Go, never with the go statement.
//   - Block only on the kernel: Sleep, and the Mutex and Cond it made.
//     A process blocked on anything else (a channel, a sync.Cond, a
//     sync.Mutex whose holder is parked) keeps the token, and the
//     whole simulation waits with it. A sync.Mutex is therefore a
//     leaf lock: never held across a blocking point.
//   - A goroutine the kernel did not start (an ops-plane HTTP handler
//     reading a simulated store) may take a kernel Mutex, but a wait
//     there borrows the token, so a run served over HTTP does not
//     replay.
//   - Finish (or unblock) all processes before the function passed to
//     Run returns: the simulation stops with the main process, and
//     the others stay parked where they are.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xpointdb/internal/clock"
)

// Kernel is a virtual-time clock.Clock. Create one with New, start
// processes with Go, and drive the simulation with Run.
type Kernel struct {
	mu      sync.Mutex
	start   time.Time
	now     time.Duration // virtual time elapsed since start
	running bool          // a process holds the run token
	runq    waitq         // runnable processes waiting for the token
	timers  []timer       // ordered by time, then creation

	stopped  chan struct{}  // closed when Run's main process exits or deadlocks
	deadlock string         // why the simulation stopped with main still live
	procs    map[string]int // live process names -> count, for diagnostics
}

var _ clock.Clock = (*Kernel)(nil)

// waitq is a FIFO of parked processes; closing a process's channel
// releases it.
type waitq []chan struct{}

func (q *waitq) push() chan struct{} {
	ch := make(chan struct{})
	*q = append(*q, ch)
	return ch
}

// pop removes and returns the oldest process, or nil if q is empty.
func (q *waitq) pop() chan struct{} {
	if len(*q) == 0 {
		return nil
	}
	ch := (*q)[0]
	(*q)[0] = nil
	*q = (*q)[1:]
	return ch
}

// timer is a process sleeping until at.
type timer struct {
	at time.Duration
	ch chan struct{}
}

// New returns a kernel whose virtual clock starts at start.
func New(start time.Time) *Kernel {
	return &Kernel{start: start, procs: make(map[string]int)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return k.start.Add(k.Elapsed()) }

// Elapsed returns the virtual time elapsed since the kernel started.
func (k *Kernel) Elapsed() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// Sleep blocks the calling process for d of virtual time. It must only
// be called from a process tracked by the kernel (one started by Go or
// Run).
func (k *Kernel) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan struct{})
	k.mu.Lock()
	at := k.now + d
	i := sort.Search(len(k.timers), func(i int) bool { return k.timers[i].at > at })
	k.timers = append(k.timers, timer{})
	copy(k.timers[i+1:], k.timers[i:])
	k.timers[i] = timer{at: at, ch: ch}
	k.yieldLocked()
	k.mu.Unlock()
	<-ch
}

// Go starts fn as a new tracked process, runnable behind every process
// that already is.
func (k *Kernel) Go(name string, fn func()) {
	ch := make(chan struct{})
	k.mu.Lock()
	k.procs[name]++
	k.readyLocked(ch)
	k.mu.Unlock()
	go func() {
		<-ch
		defer k.exit(name)
		fn()
	}()
}

// Run executes main as the root process and returns when it does,
// leaving any other process parked. Virtual time during the call
// advances per the simulation rules. A panic inside the main process
// is rethrown on the caller's goroutine, and so is a simulation
// deadlock, whichever process meets it. Run must not be called
// concurrently with itself.
func (k *Kernel) Run(main func()) {
	var r any
	k.stopped = make(chan struct{}) // Go's locking publishes it to exit
	k.Go("main", func() {
		defer func() { r = recover() }()
		main()
	})
	<-k.stopped // written before the close, deadlock is safe to read
	if k.deadlock != "" {
		r = k.deadlock
	}
	if r != nil {
		panic(r)
	}
}

func (k *Kernel) exit(name string) {
	k.mu.Lock()
	if k.procs[name]--; k.procs[name] <= 0 {
		delete(k.procs, name)
	}
	if name == "main" {
		k.running = false
		close(k.stopped)
	} else {
		k.yieldLocked()
	}
	k.mu.Unlock()
}

// readyLocked makes the process parked on ch runnable: it runs at once
// if no process holds the token, and otherwise queues for it.
func (k *Kernel) readyLocked(ch chan struct{}) {
	if k.running {
		k.runq = append(k.runq, ch)
		return
	}
	k.running = true
	close(ch)
}

// yieldLocked passes the calling process's token to the oldest
// runnable process. If there is none, virtual time advances to the
// earliest timer and every process due at that instant becomes
// runnable, in creation order. With no timer either, the simulation
// is idle, which is a deadlock while the main process still runs.
func (k *Kernel) yieldLocked() {
	if len(k.runq) == 0 && len(k.timers) > 0 {
		k.now = k.timers[0].at
		for len(k.timers) > 0 && k.timers[0].at == k.now {
			k.runq = append(k.runq, k.timers[0].ch)
			k.timers = k.timers[1:]
		}
	}
	if ch := k.runq.pop(); ch != nil {
		close(ch)
		return
	}
	k.running = false
	if k.procs["main"] > 0 && k.deadlock == "" {
		// Run panics with this on its caller's goroutine; every
		// process stays parked.
		k.deadlock = "sim: deadlock — no runnable process and no pending timer; live processes: " + k.procDumpLocked()
		close(k.stopped)
	}
}

func (k *Kernel) procDumpLocked() string {
	names := make([]string, 0, len(k.procs))
	for n, c := range k.procs {
		names = append(names, fmt.Sprintf("%s×%d", n, c))
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// NewMutex returns a mutex whose contention the kernel schedules: a
// process that finds it locked parks and gives up the token, and
// Unlock hands the lock to the oldest waiter.
func (k *Kernel) NewMutex() clock.Mutex { return &mutex{k: k} }

// NewCond returns a condition variable bound to m, which must come
// from the same kernel's NewMutex. Signal and Broadcast make waiters
// runnable, oldest first, at the current instant.
func (k *Kernel) NewCond(m clock.Mutex) clock.Cond { return &cond{m: m.(*mutex)} }

type mutex struct {
	k       *Kernel
	locked  bool
	waiters waitq
}

func (m *mutex) Lock() {
	m.k.mu.Lock()
	if !m.locked {
		m.locked = true
		m.k.mu.Unlock()
		return
	}
	ch := m.waiters.push()
	m.k.yieldLocked()
	m.k.mu.Unlock()
	<-ch // Unlock handed the lock over
}

func (m *mutex) Unlock() {
	m.k.mu.Lock()
	m.unlockLocked()
	m.k.mu.Unlock()
}

func (m *mutex) unlockLocked() {
	if !m.locked {
		m.k.mu.Unlock()
		panic("sim: unlock of unlocked mutex")
	}
	if ch := m.waiters.pop(); ch != nil {
		m.k.readyLocked(ch)
	} else {
		m.locked = false
	}
}

type cond struct {
	m       *mutex
	waiters waitq
}

func (c *cond) Wait() {
	k := c.m.k
	k.mu.Lock()
	ch := c.waiters.push()
	c.m.unlockLocked()
	k.yieldLocked()
	k.mu.Unlock()
	<-ch
	c.m.Lock()
}

func (c *cond) Signal()    { c.wake(false) }
func (c *cond) Broadcast() { c.wake(true) }

// wake makes the oldest waiter, or every waiter, runnable.
func (c *cond) wake(all bool) {
	k := c.m.k
	k.mu.Lock()
	for ch := c.waiters.pop(); ch != nil; ch = c.waiters.pop() {
		k.readyLocked(ch)
		if !all {
			break
		}
	}
	k.mu.Unlock()
}
