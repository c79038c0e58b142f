// Package histogram provides the latency histograms and throughput
// time series used by the engine's instrumentation and by the
// experiment harness — the counters behind every latency and
// throughput figure in the paper.
package histogram

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// numBuckets is the number of buckets: makeLimits's 1 µs × 1.5ⁿ
// bounds below 20 s, then +Inf.
const numBuckets = 43

// bucketLimits holds the upper bounds (inclusive) of the histogram
// buckets in nanoseconds, growing geometrically by ~1.5× from 1 µs to
// beyond 10 s. The layout follows RocksDB's HistogramImpl.
var bucketLimits = makeLimits()

func makeLimits() [numBuckets]int64 {
	var limits []int64
	v := int64(1000) // 1 µs
	for v < int64(20*time.Second) {
		limits = append(limits, v)
		next := v + v/2
		if next == v {
			next = v + 1
		}
		v = next
	}
	limits = append(limits, math.MaxInt64)
	if len(limits) != numBuckets {
		panic(fmt.Sprintf("histogram: %d bucket limits, numBuckets is %d", len(limits), numBuckets))
	}
	return [numBuckets]int64(limits)
}

// stripes is the number of stripes a Histogram records into.
const stripes = 8

// cacheLine is the padding that keeps each stripe's counts off the
// cache lines of its neighbours.
const cacheLine = 64

// Histogram accumulates duration samples and reports percentiles. It is
// safe for concurrent use. The zero value is ready to use.
//
// Record writes into one of a fixed set of stripes, each with its own
// lock and counts on its own cache lines, so concurrent recorders on
// different Ps do not share a cache line; the readers merge the
// stripes. A recorder takes the stripe its P used last from pool,
// which holds only pointers into stripes: when a GC empties the pool,
// the next Record takes a stripe round-robin from the array, and no
// sample is lost.
type Histogram struct {
	pool    sync.Pool     // *stripe
	next    atomic.Uint32 // round-robin stripe for a P the pool has none for
	_       [cacheLine]byte
	stripes [stripes]stripe
}

type stripe struct {
	mu sync.Mutex
	counts
	_ [cacheLine]byte
}

// counts is one stripe's samples, or a merged snapshot of all of them.
type counts struct {
	buckets [numBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	ns := max(int64(d), 0)
	idx := sort.Search(numBuckets, func(i int) bool { return bucketLimits[i] >= ns })
	s, _ := h.pool.Get().(*stripe)
	if s == nil {
		s = &h.stripes[h.next.Add(1)%stripes]
	}
	s.mu.Lock()
	s.buckets[idx]++
	s.count++
	s.sum += ns
	if s.count == 1 || ns < s.min {
		s.min = ns
	}
	if ns > s.max {
		s.max = ns
	}
	s.mu.Unlock()
	h.pool.Put(s)
}

// snapshot merges the stripes, each read under its own lock.
func (h *Histogram) snapshot() counts {
	var c counts
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		c.merge(&s.counts)
		s.mu.Unlock()
	}
	return c
}

// merge adds o's samples into c.
func (c *counts) merge(o *counts) {
	if o.count == 0 {
		return
	}
	if c.count == 0 || o.min < c.min {
		c.min = o.min
	}
	c.max = max(c.max, o.max)
	for i, n := range o.buckets {
		c.buckets[i] += n
	}
	c.count += o.count
	c.sum += o.sum
}

func (c *counts) mean() time.Duration {
	if c.count == 0 {
		return 0
	}
	return time.Duration(c.sum / c.count)
}

func (c *counts) percentile(p float64) time.Duration {
	if c.count == 0 {
		return 0
	}
	threshold := float64(c.count) * p / 100
	var cum float64
	for i, n := range c.buckets {
		if n == 0 {
			continue
		}
		cum += float64(n)
		if cum >= threshold {
			lo := int64(0)
			if i > 0 {
				lo = bucketLimits[i-1]
			}
			hi := bucketLimits[i]
			if hi == math.MaxInt64 {
				hi = c.max
			}
			// Interpolate position within the bucket.
			within := 1 - (cum-threshold)/float64(n)
			v := float64(lo) + within*float64(hi-lo)
			if v < float64(c.min) {
				v = float64(c.min)
			}
			if v > float64(c.max) {
				v = float64(c.max)
			}
			return time.Duration(v)
		}
	}
	return time.Duration(c.max)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.snapshot().count }

// Sum returns the total of all samples, for stage-attribution checks
// (e.g. comparing per-stage perf totals against end-to-end latency).
func (h *Histogram) Sum() time.Duration { return time.Duration(h.snapshot().sum) }

// Mean returns the mean sample.
func (h *Histogram) Mean() time.Duration {
	c := h.snapshot()
	return c.mean()
}

// Min and Max return the extreme samples.
func (h *Histogram) Min() time.Duration { return time.Duration(h.snapshot().min) }

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return time.Duration(h.snapshot().max) }

// Percentile returns the p-th percentile (0 < p ≤ 100), interpolated
// within the containing bucket.
func (h *Histogram) Percentile(p float64) time.Duration {
	c := h.snapshot()
	return c.percentile(p)
}

// Bucket is one cumulative bucket of a histogram snapshot: Count
// samples were ≤ UpperBound. The final bucket's UpperBound is
// math.MaxInt64 (render as +Inf) and its Count equals the total.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper limit in nanoseconds.
	UpperBound int64
	// Count is the cumulative number of samples at or below UpperBound.
	Count int64
}

// Buckets returns the cumulative bucket counts (Prometheus histogram
// convention), skipping leading all-zero buckets but always including
// the terminal +Inf bucket. Returns nil when the histogram is empty.
func (h *Histogram) Buckets() []Bucket {
	bs, _, _ := h.Export()
	return bs
}

// Export returns the cumulative buckets together with the matching
// count and sum, taken from one merged snapshot — so an exporter
// racing concurrent Records still renders a consistent histogram. The
// count is the +Inf bucket's, as the Prometheus format requires.
func (h *Histogram) Export() (bs []Bucket, count int64, sum time.Duration) {
	c := h.snapshot()
	if c.count == 0 {
		return nil, 0, 0
	}
	bs = make([]Bucket, 0, 16)
	for i, n := range c.buckets {
		count += n
		if count == 0 && bucketLimits[i] != math.MaxInt64 {
			continue
		}
		bs = append(bs, Bucket{UpperBound: bucketLimits[i], Count: count})
	}
	return bs, count, time.Duration(c.sum)
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		s.counts = counts{}
		s.mu.Unlock()
	}
}

// Merge adds all of other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	c := other.snapshot()
	s := &h.stripes[0]
	s.mu.Lock()
	s.merge(&c)
	s.mu.Unlock()
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	c := h.snapshot()
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		c.count, c.mean(), c.percentile(50), c.percentile(90), c.percentile(99), time.Duration(c.max))
}

// ---------------------------------------------------------------------

// TimeSeries counts events into fixed-width time buckets, producing the
// per-second throughput timelines of Figures 4, 5 and 18. It is safe
// for concurrent use.
type TimeSeries struct {
	start time.Time
	width time.Duration

	mu      sync.Mutex
	buckets map[int64]int64
}

// NewTimeSeries returns a series whose buckets are width wide, with
// bucket 0 starting at start.
func NewTimeSeries(start time.Time, width time.Duration) *TimeSeries {
	if width <= 0 {
		width = time.Second
	}
	return &TimeSeries{start: start, width: width, buckets: make(map[int64]int64)}
}

// Record adds n events at time t.
func (ts *TimeSeries) Record(t time.Time, n int64) {
	idx := int64(t.Sub(ts.start) / ts.width)
	ts.mu.Lock()
	ts.buckets[idx] += n
	ts.mu.Unlock()
}

// Point is one bucket of a series.
type Point struct {
	// T is the offset of the bucket start from the series start.
	T time.Duration
	// Count is the number of events recorded in the bucket.
	Count int64
	// Rate is Count normalized to events/second.
	Rate float64
}

// Points returns all buckets from offset 0 through the last non-empty
// bucket, including empty intermediate buckets.
func (ts *TimeSeries) Points() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var maxIdx int64 = -1
	for i := range ts.buckets {
		if i > maxIdx {
			maxIdx = i
		}
	}
	pts := make([]Point, 0, maxIdx+1)
	for i := int64(0); i <= maxIdx; i++ {
		c := ts.buckets[i]
		pts = append(pts, Point{
			T:     time.Duration(i) * ts.width,
			Count: c,
			Rate:  float64(c) / ts.width.Seconds(),
		})
	}
	return pts
}

// MinRate returns the lowest per-bucket rate within [from, to) (offsets
// from series start), or 0 if the window is empty. Used to detect
// near-stop periods (case study A).
func (ts *TimeSeries) MinRate(from, to time.Duration) float64 {
	min := math.Inf(1)
	any := false
	for _, p := range ts.Points() {
		if p.T >= from && p.T < to {
			any = true
			if p.Rate < min {
				min = p.Rate
			}
		}
	}
	if !any {
		return 0
	}
	return min
}
