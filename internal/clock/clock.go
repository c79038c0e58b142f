// Package clock abstracts time and blocking synchronization so that the
// same engine code can run either in real time (backed by the time and
// sync packages) or inside a discrete-event simulation with virtual time
// (package sim).
//
// The contract mirrors the standard library: Mutex behaves like
// sync.Mutex, Cond like sync.Cond bound to the Mutex it was created
// with. Code that runs under a Clock must observe one additional rule:
// never hold a sync.Mutex across a clock block (Sleep, Cond.Wait, or a
// clock Mutex's Lock). The simulated clock runs one process at a time,
// so a process that waits on a sync.Mutex whose holder is parked there
// stalls the whole simulation; a clock Mutex held across a block is
// visible to it, and fine.
//
// Real's Now reads only the monotonic clock: it returns the wall time
// at process start plus the monotonic time elapsed since. Durations
// between its readings, and against time.Now, are exact; a step of the
// system's wall clock while the process runs is not reflected in them.
package clock

import (
	"sync"
	"time"
)

// Clock is the time and scheduling facility used by the engine.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time

	// Sleep pauses the calling process for d. Sleeping for a
	// non-positive duration returns immediately.
	Sleep(d time.Duration)

	// Go starts fn as a new process tracked by the clock. Engine
	// code must use Go, not the go statement, so that a simulated
	// clock can account for the process. The name is used in
	// diagnostics only.
	Go(name string, fn func())

	// NewMutex returns a mutex whose blocking is visible to the
	// clock.
	NewMutex() Mutex

	// NewCond returns a condition variable bound to m, which must
	// have been created by the same clock's NewMutex.
	NewCond(m Mutex) Cond
}

// Mutex is a mutual-exclusion lock created by a Clock.
type Mutex interface {
	Lock()
	Unlock()
}

// Cond is a condition variable created by a Clock. As with sync.Cond,
// the caller must hold the associated Mutex when calling Wait.
type Cond interface {
	Wait()
	Signal()
	Broadcast()
}

// Real is a Clock backed by the time and sync packages. The zero value
// is ready to use.
type Real struct{}

var _ Clock = Real{}

// epoch is the process's start: the origin of Real's readings.
var epoch = time.Now()

// Now returns the wall time at process start plus the monotonic time
// elapsed since: one monotonic clock read, where time.Now reads the
// wall clock too. The result carries a monotonic reading, so Sub
// against another Now or a time.Now value measures elapsed time.
func (Real) Now() time.Time { return epoch.Add(time.Since(epoch)) }

// Sleep sleeps in real time. Durations under spinThreshold are refined
// with a short busy-wait to improve precision; longer durations use
// time.Sleep for the bulk and spin for the remainder.
func (Real) Sleep(d time.Duration) { PreciseSleep(d) }

// Go runs fn on a new goroutine.
func (Real) Go(name string, fn func()) { go fn() }

// NewMutex returns a *sync.Mutex.
func (Real) NewMutex() Mutex { return &sync.Mutex{} }

// NewCond returns a sync.Cond bound to m.
func (Real) NewCond(m Mutex) Cond { return sync.NewCond(m) }

// spinThreshold is the sleep remainder below which PreciseSleep busy
// waits. It is a compromise: large enough to absorb typical timer
// overshoot, small enough not to burn meaningful CPU.
const spinThreshold = 50 * time.Microsecond

// PreciseSleep sleeps for d with sub-timer-granularity precision by
// combining time.Sleep with a final busy-wait.
func PreciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > spinThreshold {
		time.Sleep(d - spinThreshold)
	}
	for time.Now().Before(deadline) {
		// Busy-wait the remainder.
	}
}
