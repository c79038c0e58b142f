package main

import (
	"math"
	"time"
)

// canary is a fixed pure-CPU loop that touches no engine code. Run
// before and after a workload, it tells a slow run of the program from
// a slow moment of the shared machine.
type canary struct {
	min float64 // fastest calibration run, ms
}

const (
	canaryIters = 20_000_000
	// canaryTries is how many times in a row the loop runs; the fastest
	// counts, so that only a disturbance that lasts marks a workload.
	canaryTries = 5
	// canarySlack is how far over the calibrated minimum a canary may
	// run before the workload beside it is called noisy.
	canarySlack = 1.10
)

var canarySink uint64

func (c *canary) run() float64 {
	best := math.Inf(1)
	for try := 0; try < canaryTries; try++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < canaryIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		canarySink += x
		best = math.Min(best, float64(time.Since(t0))/1e6)
	}
	return best
}

func calibrateCanary() *canary {
	c := &canary{min: math.Inf(1)}
	for i := 0; i < 2; i++ {
		c.min = math.Min(c.min, c.run())
	}
	return c
}

func (c *canary) limit() float64 { return c.min * canarySlack }
