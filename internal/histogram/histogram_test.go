package histogram

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	if bs, n, sum := h.Export(); bs != nil || n != 0 || sum != 0 || h.Buckets() != nil {
		t.Fatalf("empty Export = %v, %d, %v", bs, n, sum)
	}
	if got, want := h.String(), "n=0 mean=0s p50=0s p90=0s p99=0s max=0s"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestSingleSample(t *testing.T) {
	var h Histogram
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 100*time.Microsecond || h.Max() != 100*time.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	p := h.Percentile(50)
	if p < 60*time.Microsecond || p > 100*time.Microsecond {
		t.Fatalf("p50 of single sample = %v", p)
	}
}

func TestPercentileOrdering(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Record(time.Duration(rng.Intn(1000000)) * time.Microsecond / 100)
	}
	p50, p90, p99 := h.Percentile(50), h.Percentile(90), h.Percentile(99)
	if !(p50 <= p90 && p90 <= p99 && p99 <= h.Max()) {
		t.Fatalf("percentiles out of order: %v %v %v max=%v", p50, p90, p99, h.Max())
	}
	// Uniform distribution: p50 should be near the middle.
	mid := 5 * time.Millisecond
	if p50 < mid/2 || p50 > mid*2 {
		t.Fatalf("p50 = %v far from %v", p50, mid)
	}
}

func TestPercentileAccuracyUniform(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	p90 := h.Percentile(90)
	want := 9 * time.Millisecond
	// Geometric buckets: allow 50% relative error.
	if p90 < want/2 || p90 > want*3/2 {
		t.Fatalf("p90 = %v, want ≈%v", p90, want)
	}
}

func TestMean(t *testing.T) {
	var h Histogram
	h.Record(10 * time.Microsecond)
	h.Record(30 * time.Microsecond)
	if got := h.Mean(); got != 20*time.Microsecond {
		t.Fatalf("Mean = %v", got)
	}
}

func TestNegativeClampedToZero(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Second)
	if h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample mishandled: max=%v", h.Max())
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	b.Record(5 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != time.Millisecond || a.Max() != 5*time.Millisecond {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if a.Mean() != 3*time.Millisecond {
		t.Fatalf("merged mean = %v", a.Mean())
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	var a, b Histogram
	b.Record(7 * time.Microsecond)
	a.Merge(&b)
	if a.Count() != 1 || a.Min() != 7*time.Microsecond {
		t.Fatalf("merge into empty: n=%d min=%v", a.Count(), a.Min())
	}
}

func TestReset(t *testing.T) {
	var h Histogram
	recordInEveryStripe(t, &h)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset incomplete")
	}
	for i := range h.stripes {
		if h.stripes[i].counts != (counts{}) {
			t.Fatalf("stripe %d not reset", i)
		}
	}
}

// recordInEveryStripe records one sample per stripe, i+1 ms into the
// i-th taken. Two GCs before each Record empty the pool (the first
// moves its contents to the victim cache, the second drops them), so
// each Record takes the next stripe round-robin.
func recordInEveryStripe(t *testing.T, h *Histogram) {
	t.Helper()
	for i := 0; i < stripes; i++ {
		runtime.GC()
		runtime.GC()
		h.Record(time.Duration(i+1) * time.Millisecond)
	}
	for i := range h.stripes {
		if n := h.stripes[i].count; n != 1 {
			t.Fatalf("stripe %d holds %d samples, want 1", i, n)
		}
	}
}

// TestGCLosesNoSample: a Record after a GC emptied the pool counts,
// and Merge reads every stripe.
func TestGCLosesNoSample(t *testing.T) {
	var h, m Histogram
	recordInEveryStripe(t, &h)
	m.Merge(&h)
	for _, g := range []*Histogram{&h, &m} {
		if g.Count() != stripes || g.Sum() != 36*time.Millisecond ||
			g.Min() != time.Millisecond || g.Max() != stripes*time.Millisecond {
			t.Fatalf("%v, want %d samples of 1–%d ms", g, stripes, stripes)
		}
	}
	assertSame(t, &m, &h)
}

// assertSame fails unless got and want hold the same samples as far as
// any reader can tell.
func assertSame(t *testing.T, got, want *Histogram) {
	t.Helper()
	gb, gn, gs := got.Export()
	wb, wn, ws := want.Export()
	if gn != wn || gs != ws || got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("got n=%d sum=%v min=%v max=%v, want n=%d sum=%v min=%v max=%v",
			gn, gs, got.Min(), got.Max(), wn, ws, want.Min(), want.Max())
	}
	if !reflect.DeepEqual(gb, wb) {
		t.Fatalf("buckets %v, want %v", gb, wb)
	}
	for _, p := range []float64{50, 90, 99} {
		if g, w := got.Percentile(p), want.Percentile(p); g != w {
			t.Fatalf("p%v = %v, want %v", p, g, w)
		}
	}
}

// TestConcurrentRecord: samples recorded by GOMAXPROCS×4 goroutines
// read back exactly as the same samples recorded by one.
func TestConcurrentRecord(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) * 4
	const perWorker = 10000
	samples := make([]time.Duration, workers*perWorker)
	rng := rand.New(rand.NewSource(1))
	for i := range samples {
		samples[i] = time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
	}
	var ref, h Histogram
	for _, d := range samples {
		ref.Record(d)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine []time.Duration) {
			defer wg.Done()
			for _, d := range mine {
				h.Record(d)
			}
		}(samples[w*perWorker : (w+1)*perWorker])
	}
	wg.Wait()
	if h.Count() != int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(samples))
	}
	assertSame(t, &h, &ref)
}

// TestExportWhileRecording: every Export taken while other goroutines
// record is a consistent histogram: cumulative buckets never fall, and
// the +Inf bucket equals the count.
func TestExportWhileRecording(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0)*2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Record(time.Duration(i%100_000) * 100 * time.Nanosecond)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 2000; i++ {
		bs, n, _ := h.Export()
		if n == 0 {
			continue
		}
		last := bs[len(bs)-1]
		if last.UpperBound != math.MaxInt64 || last.Count != n {
			t.Fatalf("+Inf bucket %+v, count %d", last, n)
		}
		for j := 1; j < len(bs); j++ {
			if bs[j].Count < bs[j-1].Count {
				t.Fatalf("cumulative buckets fall: %v", bs)
			}
		}
	}
}

// TestRecordAllocs: Record allocates nothing, also right after a GC
// emptied the pool and it falls back to a round-robin stripe. (The
// pool's per-P array, remade on its first use after a GC, is the one
// allocation per GC cycle; it falls to AllocsPerRun's warm-up call.)
func TestRecordAllocs(t *testing.T) {
	var h Histogram
	record := func() { h.Record(time.Microsecond) }
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Fatalf("Record allocates %v times", n)
	}
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Fatalf("Record after a GC allocates %v times", n)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(1000 + i%50_000))
	}
}

// BenchmarkHistogramRecordParallel is Record from GOMAXPROCS
// goroutines into one histogram, as concurrent Gets record GetLatency.
func BenchmarkHistogramRecordParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			h.Record(time.Duration(1000 + i%50_000))
		}
	})
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Record(time.Duration(s))
		}
		for _, p := range []float64{1, 50, 90, 99, 100} {
			v := h.Percentile(p)
			if v < h.Min() || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(t0, time.Second)
	ts.Record(t0, 1)
	ts.Record(t0.Add(500*time.Millisecond), 2)
	ts.Record(t0.Add(1500*time.Millisecond), 5)
	ts.Record(t0.Add(3100*time.Millisecond), 7)
	pts := ts.Points()
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Count != 3 || pts[1].Count != 5 || pts[2].Count != 0 || pts[3].Count != 7 {
		t.Fatalf("counts = %v", pts)
	}
	if pts[1].Rate != 5 {
		t.Fatalf("rate = %f", pts[1].Rate)
	}
	if pts[2].T != 2*time.Second {
		t.Fatalf("gap bucket offset = %v", pts[2].T)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(t0, time.Second)
	if pts := ts.Points(); len(pts) != 0 {
		t.Fatalf("empty series has %d points", len(pts))
	}
}

func TestTimeSeriesMinRate(t *testing.T) {
	ts := NewTimeSeries(t0, time.Second)
	ts.Record(t0.Add(0*time.Second), 100)
	ts.Record(t0.Add(1*time.Second), 5)
	ts.Record(t0.Add(2*time.Second), 50)
	if got := ts.MinRate(0, 3*time.Second); got != 5 {
		t.Fatalf("MinRate = %f", got)
	}
	if got := ts.MinRate(10*time.Second, 20*time.Second); got != 0 {
		t.Fatalf("MinRate of empty window = %f", got)
	}
}

func TestTimeSeriesConcurrent(t *testing.T) {
	ts := NewTimeSeries(t0, time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ts.Record(t0.Add(time.Duration(i)*time.Millisecond), 1)
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for _, p := range ts.Points() {
		total += p.Count
	}
	if total != 4000 {
		t.Fatalf("total = %d", total)
	}
}
