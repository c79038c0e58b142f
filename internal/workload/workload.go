// Package workload is the db_bench equivalent: key/value generators
// and concurrent mixed-ratio runners driving a DB (or a raw device)
// under either clock. Workloads follow the paper's methodology:
// randomreadrandomwrite key choice, 1 KB values, configurable
// read/write ratio and parallelism, fixed duration.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/histogram"
)

// errorPause is how long a worker waits after a failed op before its
// next one. A store that fails fast (a latched background error) costs
// no engine-clock time per op, so under the simulation kernel, which
// runs one process at a time, a worker retrying at once would never let
// the recovery worker run.
const errorPause = time.Millisecond

// KV is the operation surface the runner drives.
type KV interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
}

// Config parameterizes one run.
type Config struct {
	// Workers is the number of concurrent client processes (the
	// paper's "parallel processes/threads").
	Workers int
	// ReadRatio is the fraction of operations that are reads; the
	// paper's "insertion ratio" is 1 − ReadRatio.
	ReadRatio float64
	// Duration is how long the measured phase runs.
	Duration time.Duration
	// KeySpace is the number of distinct keys addressed.
	KeySpace int
	// ValueSize is the value payload size (paper: 1 KB).
	ValueSize int
	// Seed makes runs reproducible.
	Seed int64
	// Burst, if non-nil, periodically switches the mix to the burst
	// ratio (case study A's "flash of crowd": 25 s per minute at
	// read:write 1:9).
	Burst *BurstConfig
	// ReadWorkers/WriteWorkers, when either is non-zero, replace the
	// ratio-mixed worker pool with dedicated pools: ReadWorkers
	// processes issue only Gets while WriteWorkers processes issue
	// only Puts (Workers and ReadRatio are ignored). This is the
	// read-while-writing mix used to isolate read-path latency under
	// concurrent write load (dbbench -benchmarks mixed).
	ReadWorkers  int
	WriteWorkers int
	// Shards and HotShardSkew shape key choice for sharded stores.
	// With Shards > 1 and HotShardSkew > 1, workers first draw a shard
	// index from a Zipf distribution with parameter HotShardSkew
	// (shard 0 hottest), then a uniform key within that shard's
	// contiguous slice of the keyspace — the hot-shard workload that
	// separates a shared stall budget from per-store ones. Zero values
	// keep the uniform generator.
	Shards       int
	HotShardSkew float64
}

// BurstConfig describes periodic write bursts.
type BurstConfig struct {
	// Period is the cycle length (paper: 60 s).
	Period time.Duration
	// BurstLen is the burst duration within each cycle (paper: 25 s).
	BurstLen time.Duration
	// BurstReadRatio is the read fraction during the burst (paper:
	// 0.1).
	BurstReadRatio float64
}

// Result aggregates a run's measurements.
type Result struct {
	Duration   time.Duration
	Reads      int64
	Writes     int64
	ReadMisses int64
	Errors     int64

	ReadLat  *histogram.Histogram
	WriteLat *histogram.Histogram

	// Series is the per-second operation count over the run.
	Series *histogram.TimeSeries
}

// Ops returns total operations performed.
func (r *Result) Ops() int64 { return r.Reads + r.Writes }

// Throughput returns overall operations/second.
func (r *Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops()) / r.Duration.Seconds()
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("%.1f kop/s (reads=%d writes=%d misses=%d) read[p50=%v p90=%v p99=%v] write[p50=%v p90=%v p99=%v]",
		r.Throughput()/1000, r.Reads, r.Writes, r.ReadMisses,
		r.ReadLat.Percentile(50), r.ReadLat.Percentile(90), r.ReadLat.Percentile(99),
		r.WriteLat.Percentile(50), r.WriteLat.Percentile(90), r.WriteLat.Percentile(99))
}

// Key returns the i-th key of the key space (16-byte fixed width).
func Key(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// Value returns a deterministic pseudo-random value of n bytes for key
// index i, so correctness checks need no stored copy.
func Value(i, n int) []byte {
	v := make([]byte, n)
	x := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for j := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[j] = byte(x)
	}
	return v
}

// Preload writes keys [0, n) sequentially so a read-mostly run finds
// its working set. Call from inside the clock's Run context.
func Preload(db KV, n, valueSize int) error {
	for i := 0; i < n; i++ {
		if err := db.Put(Key(i), Value(i, valueSize)); err != nil {
			return fmt.Errorf("workload: preload key %d: %w", i, err)
		}
	}
	return nil
}

// Run drives db with cfg.Workers concurrent workers for cfg.Duration
// and returns aggregated results. It must be called from a process of
// clk (inside sim.Kernel.Run for virtual time).
func Run(clk clock.Clock, db KV, cfg Config) *Result {
	dedicated := cfg.ReadWorkers > 0 || cfg.WriteWorkers > 0
	if dedicated {
		cfg.Workers = cfg.ReadWorkers + cfg.WriteWorkers
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 1024
	}
	if cfg.KeySpace <= 0 {
		cfg.KeySpace = 100000
	}

	start := clk.Now()
	end := start.Add(cfg.Duration)
	res := &Result{
		ReadLat:  &histogram.Histogram{},
		WriteLat: &histogram.Histogram{},
		Series:   histogram.NewTimeSeries(start, time.Second),
	}

	type workerStats struct {
		reads, writes, misses, errs int64
		readLat, writeLat           histogram.Histogram
	}
	stats := make([]workerStats, cfg.Workers)

	clock.Parallel(clk, "workload", cfg.Workers, func(w int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
		st := &stats[w]
		// rand.Zipf is not safe for concurrent use: one per worker.
		var zipf *rand.Zipf
		if cfg.Shards > 1 && cfg.HotShardSkew > 1 {
			zipf = rand.NewZipf(rng, cfg.HotShardSkew, 1, uint64(cfg.Shards-1))
		}
		for {
			now := clk.Now()
			if !now.Before(end) {
				break
			}
			readRatio := cfg.ReadRatio
			if dedicated {
				if w < cfg.ReadWorkers {
					readRatio = 1
				} else {
					readRatio = 0
				}
			}
			if b := cfg.Burst; b != nil {
				phase := now.Sub(start) % b.Period
				if phase < b.BurstLen {
					readRatio = b.BurstReadRatio
				}
			}
			i := rng.Intn(cfg.KeySpace)
			if zipf != nil {
				s := int(zipf.Uint64())
				lo := cfg.KeySpace * s / cfg.Shards
				hi := cfg.KeySpace * (s + 1) / cfg.Shards
				if hi > lo {
					i = lo + rng.Intn(hi-lo)
				}
			}
			if rng.Float64() < readRatio {
				t0 := clk.Now()
				_, err := db.Get(Key(i))
				st.readLat.Record(clk.Now().Sub(t0))
				st.reads++
				if err != nil {
					if isNotFound(err) {
						st.misses++
					} else {
						st.errs++
						clk.Sleep(errorPause)
					}
				}
			} else {
				t0 := clk.Now()
				err := db.Put(Key(i), Value(i, cfg.ValueSize))
				st.writeLat.Record(clk.Now().Sub(t0))
				st.writes++
				if err != nil {
					st.errs++
					clk.Sleep(errorPause)
				}
			}
			res.Series.Record(clk.Now(), 1)
		}
	})

	res.Duration = clk.Now().Sub(start)
	for i := range stats {
		st := &stats[i]
		res.Reads += st.reads
		res.Writes += st.writes
		res.ReadMisses += st.misses
		res.Errors += st.errs
		res.ReadLat.Merge(&st.readLat)
		res.WriteLat.Merge(&st.writeLat)
	}
	return res
}

// notFounder matches the engine's ErrNotFound without importing it
// (keeps this package reusable against any KV).
func isNotFound(err error) bool {
	return err != nil && err.Error() == "engine: key not found"
}

// RawDevice is the op surface of a raw block device, for the Figure 1
// baseline.
type RawDevice interface {
	Read(n int)
	Write(n int)
}

// RunRaw drives 4 KiB random reads/writes directly against a device,
// reproducing the paper's Intel Open Storage Toolkit baseline.
func RunRaw(clk clock.Clock, dev RawDevice, workers int, readRatio float64, duration time.Duration, seed int64) *Result {
	start := clk.Now()
	end := start.Add(duration)
	res := &Result{
		ReadLat:  &histogram.Histogram{},
		WriteLat: &histogram.Histogram{},
		Series:   histogram.NewTimeSeries(start, time.Second),
	}

	type rawStats struct {
		reads, writes     int64
		readLat, writeLat histogram.Histogram
	}
	stats := make([]rawStats, workers)

	clock.Parallel(clk, "raw", workers, func(w int) {
		rng := rand.New(rand.NewSource(seed + int64(w)*104729))
		st := &stats[w]
		for clk.Now().Before(end) {
			t0 := clk.Now()
			if rng.Float64() < readRatio {
				dev.Read(4096)
				st.readLat.Record(clk.Now().Sub(t0))
				st.reads++
			} else {
				dev.Write(4096)
				st.writeLat.Record(clk.Now().Sub(t0))
				st.writes++
			}
			res.Series.Record(clk.Now(), 1)
		}
	})

	res.Duration = clk.Now().Sub(start)
	for i := range stats {
		st := &stats[i]
		res.Reads += st.reads
		res.Writes += st.writes
		res.ReadLat.Merge(&st.readLat)
		res.WriteLat.Merge(&st.writeLat)
	}
	return res
}
