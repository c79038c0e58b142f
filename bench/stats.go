package main

import "slices"

// percentile returns the p-th percentile of sorted latency samples,
// interpolating between the two nearest ranks.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := p / 100 * float64(len(sorted)-1)
	i := int(r)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := r - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

// tailLadder is the percentiles a tail is reported at, each with the
// share of samples that lies beyond it as 1/beyond.
var tailLadder = []struct {
	pct    float64
	beyond int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10_000}, {99.999, 100_000}, {99.9999, 1_000_000}}

// highestPercentile picks from tailLadder the highest percentile that
// still has at least ten of n samples beyond it, or 0 if none has.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n/t.beyond >= 10 {
			best = t.pct
		}
	}
	return best
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// usec converts nanoseconds to microseconds.
func usec(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, and 0 where there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
