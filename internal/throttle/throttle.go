// Package throttle implements RocksDB's write controller as described
// by the paper's Algorithm 1 (WRITE CONTROL PROCESS), plus the paper's
// case-study-A "two-stage throttling" variant.
//
// The controller is a token bucket refilled at delayed_write_rate with
// a minimum injected delay of refill_interval (1024 µs). When the
// engine reports that compaction is falling behind, the rate is
// multiplied by Dec = 0.8; when it is keeping up, by Inc = 1.25. The
// paper's Analysis #1 shows the consequence: once throttling engages,
// application throughput collapses to roughly
//
//	λa = t/(refill_interval + t) · λs
//
// independent of how fast the device is — the bottleneck the paper
// calls out on 3D XPoint.
package throttle

import (
	"fmt"
	"sync"
	"time"

	"xpointdb/internal/clock"
)

// Algorithm 1 constants.
const (
	// Dec and Inc are the multiplicative rate adjustments.
	Dec = 0.8
	Inc = 1.25
	// RefillInterval is the minimum injected delay period.
	RefillInterval = 1024 * time.Microsecond
)

// Mode selects the throttling policy.
type Mode int

const (
	// ModeNone disables write delays entirely (stops still apply).
	ModeNone Mode = iota
	// ModeAlgorithm1 is the paper's Algorithm 1 (RocksDB default).
	ModeAlgorithm1
	// ModeTwoStage is case study A: a gentle stage between the
	// slowdown threshold and the midpoint (slowdown+stop)/2 whose rate
	// never drops below half the starting rate, then full Algorithm 1
	// beyond it.
	ModeTwoStage
)

// State is the engine-computed stall condition.
type State int

const (
	// StateClear means no stall condition holds.
	StateClear State = iota
	// StateDelayed means the slowdown threshold is exceeded
	// (Algorithm 1 delays apply).
	StateDelayed
	// StateAggressive is two-stage mode's second stage (beyond the
	// midpoint); identical to StateDelayed under ModeAlgorithm1.
	StateAggressive
	// StateStopped means writes must block entirely (the engine
	// handles the blocking; the controller only records it).
	StateStopped
)

// String names the state for logs and the event stream.
func (s State) String() string {
	switch s {
	case StateClear:
		return "clear"
	case StateDelayed:
		return "delayed"
	case StateAggressive:
		return "aggressive"
	case StateStopped:
		return "stopped"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Controller computes per-write delays. It is safe for concurrent use.
type Controller struct {
	clk  clock.Clock
	mode Mode

	mu    sync.Mutex
	state State
	// sources holds the per-source stall states when the controller is
	// shared across shards (SetSourceState); state is their max
	// severity. Nil until a source other than 0 reports.
	sources map[int]State
	// rate is the current delayed_write_rate in bytes/second.
	rate float64
	// initialRate restores rate when a stall episode ends.
	initialRate float64
	// floorRate is stage 1's "maximum acceptable" lower bound on the
	// delayed write rate (two-stage mode): half the starting rate.
	floorRate float64
	minRate   float64
	maxRate   float64

	lastRefill  time.Time
	creditBytes float64

	// totals for instrumentation
	totalDelay  time.Duration
	delayedOps  int64
	adjustments int64

	// rateChanged observes AdjustRate steps (set once at New).
	rateChanged func(oldRate, newRate float64, behind bool)
}

// Config parameterizes the controller.
type Config struct {
	// Mode selects the policy (default ModeAlgorithm1).
	Mode Mode
	// DelayedWriteRate is the starting delayed_write_rate in
	// bytes/second (RocksDB default 16 MiB/s).
	DelayedWriteRate float64
	// RateChanged, if non-nil, observes every AdjustRate step with the
	// pre- and post-clamp rates. It is called without the controller
	// lock held and must not call back into the controller.
	RateChanged func(oldRate, newRate float64, behind bool)
}

// New returns a controller charging delays to clk.
func New(clk clock.Clock, cfg Config) *Controller {
	if cfg.DelayedWriteRate <= 0 {
		cfg.DelayedWriteRate = 16 << 20
	}
	return &Controller{
		clk:         clk,
		mode:        cfg.Mode,
		state:       StateClear,
		rate:        cfg.DelayedWriteRate,
		initialRate: cfg.DelayedWriteRate,
		floorRate:   cfg.DelayedWriteRate / 2,
		minRate:     1 << 20, // 1 MiB/s lower clamp
		maxRate:     1 << 30, // 1 GiB/s upper clamp
		lastRefill:  clk.Now(),
		rateChanged: cfg.RateChanged,
	}
}

// SetState installs the stall condition computed by the engine. For a
// controller shared by several shards it is shorthand for source 0.
func (c *Controller) SetState(s State) { c.SetSourceState(0, s) }

// SetSourceState installs the stall condition reported by one source
// (shard). The controller's effective state is the maximum severity
// across all sources, so a shared controller delays writers globally
// while any shard is under pressure, and only clears — restoring the
// starting rate — once every shard is clear.
func (c *Controller) SetSourceState(src int, s State) {
	c.mu.Lock()
	if c.sources == nil {
		if src == 0 {
			// Single-source fast path: no map needed.
			c.applyStateLocked(s)
			c.mu.Unlock()
			return
		}
		c.sources = map[int]State{0: c.state}
	}
	c.sources[src] = s
	merged := StateClear
	for _, st := range c.sources {
		if st > merged {
			merged = st
		}
	}
	c.applyStateLocked(merged)
	c.mu.Unlock()
}

func (c *Controller) applyStateLocked(s State) {
	if c.state != StateClear && s == StateClear {
		// Episode over: restore the starting rate so the next
		// episode does not inherit a collapsed rate.
		c.rate = c.initialRate
		c.creditBytes = 0
	}
	c.state = s
}

// CurrentState returns the installed stall condition.
func (c *Controller) CurrentState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// AdjustRate applies Algorithm 1's multiplicative update: behind=true
// (compaction processed fewer bytes than estimated, Prev ≤ Esti)
// decreases the rate by Dec; otherwise increases by Inc.
func (c *Controller) AdjustRate(behind bool) {
	c.mu.Lock()
	oldRate := c.rate
	if behind {
		c.rate *= Dec
	} else {
		c.rate *= Inc
	}
	if c.rate < c.minRate {
		c.rate = c.minRate
	}
	if c.rate > c.maxRate {
		c.rate = c.maxRate
	}
	newRate := c.rate
	c.adjustments++
	c.mu.Unlock()
	if c.rateChanged != nil {
		c.rateChanged(oldRate, newRate, behind)
	}
}

// Rate returns the current delayed_write_rate in bytes/second.
func (c *Controller) Rate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rate
}

// Delay blocks the calling writer for the injected delay owed by a
// write of numBytes, per Algorithm 1's DELAYWRITE, and returns the
// delay applied.
func (c *Controller) Delay(numBytes int) time.Duration {
	c.mu.Lock()
	effRate := c.rate
	switch {
	case c.state == StateClear, c.state == StateStopped, c.mode == ModeNone:
		c.mu.Unlock()
		return 0
	case c.mode == ModeTwoStage && c.state == StateDelayed:
		// Stage 1: slight throttling — rate never drops below the
		// floor.
		if effRate < c.floorRate {
			effRate = c.floorRate
		}
	}

	now := c.clk.Now()
	d := c.delayLocked(now, float64(numBytes), effRate)
	if d > 0 {
		c.totalDelay += d
		c.delayedOps++
	}
	c.mu.Unlock()
	if d > 0 {
		c.clk.Sleep(d)
	}
	return d
}

// delayLocked is DELAYWRITE(num_bytes) from Algorithm 1.
func (c *Controller) delayLocked(now time.Time, numBytes, rate float64) time.Duration {
	timeSlice := now.Sub(c.lastRefill)
	bytesRefilled := timeSlice.Seconds()*rate + c.creditBytes
	if bytesRefilled >= numBytes {
		if timeSlice > RefillInterval {
			// Fully paid for; consume credit and proceed.
			c.creditBytes = bytesRefilled - numBytes
			// Cap hoarded credit at one refill interval's worth so
			// idle periods don't buy unlimited burst.
			if max := RefillInterval.Seconds() * rate; c.creditBytes > max {
				c.creditBytes = max
			}
			c.lastRefill = now
			return 0
		}
	}
	singleRefill := RefillInterval.Seconds() * rate
	c.lastRefill = now
	if bytesRefilled+singleRefill > numBytes {
		c.creditBytes = bytesRefilled + singleRefill - numBytes
		return RefillInterval
	}
	c.creditBytes = 0
	return time.Duration(numBytes / rate * float64(time.Second))
}

// Stats reports cumulative delay totals.
func (c *Controller) Stats() (total time.Duration, delayedOps, adjustments int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalDelay, c.delayedOps, c.adjustments
}
