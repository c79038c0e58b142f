// Command dbbench is the db_bench equivalent: it drives the store with
// configurable workloads either on a simulated device (virtual time,
// deterministic) or on a real directory with the real clock.
//
// Examples:
//
//	dbbench -device xpoint -threads 8 -write_ratio 0.5 -duration 10s
//	dbbench -device sata -benchmarks fillrandom -num 50000
//	dbbench -path /tmp/bench -threads 4 -duration 5s   # real disk
//	dbbench -device xpoint -faultprob 0.001 -faultheal 2s  # recovery under load
//	dbbench -device xpoint -shards 4 -benchmarks mixed     # range-sharded store
//	dbbench -device xpoint -shards 8 -hot_shard_skew 1.2   # zipfian hot shard
//	dbbench -device xpoint -disk_quota 256000000 -quota_cycle 2s  # full-disk cycling
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/costmodel"
	"xpointdb/internal/engine"
	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/shardeddb"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
	"xpointdb/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		device     = flag.String("device", "xpoint", "simulated device: sata | pcie | xpoint | nvm | null")
		path       = flag.String("path", "", "run on a real directory with the real clock instead of a simulated device")
		benchmarks = flag.String("benchmarks", "readrandomwriterandom", "comma-free single benchmark: fillrandom | readrandom | readrandomwriterandom | mixed")
		threads    = flag.Int("threads", 4, "concurrent client threads")
		duration   = flag.Duration("duration", 10*time.Second, "measured duration")
		num        = flag.Int("num", 24000, "distinct keys")
		valueSize  = flag.Int("value_size", 1024, "value size in bytes")
		writeRatio = flag.Float64("write_ratio", 0.5, "write fraction for readrandomwriterandom")
		memtable   = flag.Int64("memtable_size", 2<<20, "memtable bytes")
		disableWAL = flag.Bool("disable_wal", false, "run without the write-ahead log")
		walDevice  = flag.String("wal_device", "", "place the WAL on a separate simulated device (e.g. nvm)")
		pipelined  = flag.Bool("pipelined", true, "pipelined writes (paper Algorithm 2)")
		throttleM  = flag.String("throttle", "algo1", "write controller: none | algo1 | twostage")
		seed       = flag.Int64("seed", 42, "workload seed")
		stats      = flag.Bool("stats", false, "print the full engine stats report at the end")
		statsIntv  = flag.Duration("statsinterval", 0, "periodic stats dump interval in engine-clock time (0 disables); dumps go to stderr")
		eventLog   = flag.String("eventlog", "", "write the structured engine event stream (JSON lines) to this file")
		perf       = flag.Bool("perf", false, "collect per-operation stage timings (PerfContext histograms)")
		scrub      = flag.Bool("scrub", true, "run the background checksum scrubber during the benchmark (-scrub=false disables; rate via -scrub_rate)")
		scrubRate  = flag.Int64("scrub_rate", 0, "scrubber budget in bytes/sec (0 = engine default)")
		faultProb  = flag.Float64("faultprob", 0, "inject WAL sync failures with this probability (simulated device only); exercises error recovery under load")
		faultHeal  = flag.Duration("faultheal", 0, "heal the injected fault this long (engine-clock time) after it first matches (0 = faults persist for the whole run)")
		serveAddr  = flag.String("serve", "", "serve the HTTP ops plane on this address during the run (e.g. :8080 or 127.0.0.1:0); /metrics, /events, /stats, /healthz, /debug/pprof and a dashboard at /")
		slowOp     = flag.Duration("slowop", 0, "trace operations slower than this as slow_op events with a stage breakdown (0 disables)")
		shards     = flag.Int("shards", 0, "range-shard the store across this many engine instances with shared cache/pool/controller (0 or 1 = the bare single engine); boundaries split -num keys evenly")
		hotSkew    = flag.Float64("hot_shard_skew", 0, "with -shards > 1: draw keys zipfian-hot toward shard 0 with this skew parameter (> 1; 0 = uniform)")
		diskQuota  = flag.Int64("disk_quota", 0, "model a disk of this many bytes (simulated device only): the filesystem fails with ENOSPC past it, and the engine's space budget (MaxAllowedSpace) defends the same cap; armed after preload")
		quotaCycle = flag.Duration("quota_cycle", 0, "with -disk_quota: periodically squeeze the quota below current usage for 10%% of each cycle and release it — the full-disk squeeze/release cadence wait-for-space recovery is judged on")
		maxSub     = flag.Int("max_subcompactions", 1, "split each merging compaction into up to K concurrent key-range sub-compactions (1 = single merge loop)")
		compRate   = flag.Int64("compaction_rate", 0, "compaction I/O rate limit in bytes/sec shared by all sub-compactions (0 = unlimited)")
		resultJSON = flag.String("result_json", "", "append a one-line JSON result record (throughput, stalls, L0 drain, compaction mix) to this file")
	)
	flag.Parse()

	if *faultProb > 0 && *path != "" {
		log.Fatalf("-faultprob requires the simulated device path (fault injection wraps the in-memory filesystem, not a real directory)")
	}
	if *diskQuota > 0 && *path != "" {
		log.Fatalf("-disk_quota requires the simulated device path (the capacity quota wraps the in-memory filesystem, not a real directory)")
	}
	if *quotaCycle > 0 && *diskQuota <= 0 {
		log.Fatalf("-quota_cycle requires -disk_quota")
	}
	if *hotSkew != 0 && *hotSkew <= 1 {
		log.Fatalf("-hot_shard_skew must be > 1 (zipf s parameter), got %g", *hotSkew)
	}
	if *hotSkew > 1 && *shards < 2 {
		log.Fatalf("-hot_shard_skew requires -shards > 1")
	}

	var evLog *events.EventLog
	if *eventLog != "" {
		f, err := os.Create(*eventLog)
		if err != nil {
			log.Fatalf("create -eventlog: %v", err)
		}
		evLog = events.NewEventLog(f)
		defer func() {
			if err := evLog.Close(); err != nil {
				log.Printf("eventlog: %v", err)
			}
		}()
	}

	mode := throttle.ModeAlgorithm1
	switch *throttleM {
	case "none":
		mode = throttle.ModeNone
	case "algo1":
	case "twostage":
		mode = throttle.ModeTwoStage
	default:
		log.Fatalf("unknown -throttle %q", *throttleM)
	}

	tweak := func(o *engine.Options) {
		o.MemtableSize = *memtable
		o.TargetFileSize = *memtable
		o.BaseLevelBytes = 4 * *memtable
		o.MaxSubcompactions = *maxSub
		o.CompactionRateBytesPerSec = *compRate
		o.DisableWAL = *disableWAL
		o.PipelinedWrites = *pipelined
		o.ThrottleMode = mode
		o.CollectPerf = *perf
		o.DisableScrub = !*scrub
		if *scrubRate > 0 {
			o.ScrubBytesPerSec = *scrubRate
		}
		if evLog != nil {
			o.EventListener = evLog
		}
		o.ObsAddr = *serveAddr
		o.SlowOpThreshold = *slowOp
		if *statsIntv > 0 {
			o.StatsDumpInterval = *statsIntv
			o.StatsWriter = os.Stderr
		}
	}

	if *path != "" {
		runReal(*path, tweak, *benchmarks, *threads, *duration, *num, *valueSize, *writeRatio, *seed, *stats, *shards, *hotSkew)
		return
	}

	prof, ok := storage.ProfileByName(*device)
	if !ok {
		log.Fatalf("unknown -device %q", *device)
	}
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	dev := storage.New(k, prof)
	var fs vfs.FS = vfs.NewMem(dev)
	var ffs *faultfs.FS
	if *faultProb > 0 || *diskQuota > 0 {
		var err error
		ffs, err = faultfs.New(fs, *seed)
		if err != nil {
			log.Fatalf("faultfs: %v", err)
		}
		ffs.SetClock(k)
		fs = ffs
	}
	opts := engine.DefaultOptions(fs)
	opts.Clock = k
	opts.CostModel = costmodel.Default()
	tweak(&opts)
	if *diskQuota > 0 {
		// The engine budget defends the same cap the quota enforces, so
		// the degradation ladder and job deferral engage before ENOSPC;
		// the cycle's squeeze below usage is what forces the latch.
		opts.MaxAllowedSpace = *diskQuota
	}

	var walDev *storage.Device
	if *walDevice != "" {
		wprof, ok := storage.ProfileByName(*walDevice)
		if !ok {
			log.Fatalf("unknown -wal_device %q", *walDevice)
		}
		walDev = storage.New(k, wprof)
		opts.WALFS = vfs.NewMem(walDev)
	}

	wall := time.Now()
	var res *workload.Result
	var sum summary
	var finalStats string
	var health engine.Health
	var cyc *quotaCycler
	var l0Drain time.Duration
	k.Run(func() {
		armFaults := func() {}
		if ffs != nil && *faultProb > 0 {
			// Armed only after open and preload: the benchmark
			// measures recovery under load, not a DB that cannot
			// start or fill. Sharded WALs live under "shard-NNN/", so
			// the glob needs the extra path element (path.Match
			// wildcards do not cross '/').
			pat := "*.log"
			if *shards > 1 {
				pat = "*/*.log"
			}
			armFaults = func() {
				ffs.AddRule(faultfs.Rule{
					Ops:       []faultfs.Op{faultfs.OpSync},
					Path:      pat,
					Prob:      *faultProb,
					HealAfter: *faultHeal,
				})
			}
		}
		arm := func() {
			armFaults()
			if *diskQuota > 0 {
				// Like the fault rules, the quota arms after preload:
				// the measured window starts on a full-but-working disk.
				ffs.SetQuota(*diskQuota)
				if *quotaCycle > 0 {
					cyc = startQuotaCycler(k, ffs, *diskQuota, *quotaCycle, *duration)
				}
			}
		}
		if *shards > 1 {
			sdb, err := shardeddb.Open(shardedOptions(opts, *shards, *num))
			if err != nil {
				log.Fatalf("open sharded: %v", err)
			}
			if addr := sdb.ObsAddr(); addr != "" {
				log.Printf("ops plane on http://%s (note: engine time is virtual here; prefer -path mode for interactive browsing)", addr)
			}
			res = runBenchmark(k, sdb, *benchmarks, *threads, *duration, *num, *valueSize, *writeRatio, *seed, *shards, *hotSkew, arm)
			if cyc != nil {
				cyc.wait()
				for i := 0; i < sdb.NumShards(); i++ {
					sh := sdb.Shard(i)
					settleSpace(k, sh.Health, sh.Resume)
				}
			}
			l0Drain = drainL0(k, func() int {
				worst := 0
				for i := 0; i < sdb.NumShards(); i++ {
					if n := sdb.Shard(i).NumLevelFiles(0); n > worst {
						worst = n
					}
				}
				return worst
			}, opts.L0CompactionTrigger)
			health = sdb.Health()
			if *stats {
				finalStats = sdb.StatsReport()
			}
			if err := sdb.Close(); err != nil {
				log.Fatalf("close: %v", err)
			}
			sum = summarizeSharded(sdb)
		} else {
			db, err := engine.Open(opts)
			if err != nil {
				log.Fatalf("open: %v", err)
			}
			if addr := db.ObsAddr(); addr != "" {
				log.Printf("ops plane on http://%s (note: engine time is virtual here; prefer -path mode for interactive browsing)", addr)
			}
			res = runBenchmark(k, db, *benchmarks, *threads, *duration, *num, *valueSize, *writeRatio, *seed, 0, 0, arm)
			if cyc != nil {
				cyc.wait()
				settleSpace(k, db.Health, db.Resume)
			}
			l0Drain = drainL0(k, func() int { return db.NumLevelFiles(0) }, opts.L0CompactionTrigger)
			health = db.Health()
			if *stats {
				finalStats = db.StatsReport()
			}
			if err := db.Close(); err != nil {
				log.Fatalf("close: %v", err)
			}
			sum = summarize(db)
		}
	})

	label := prof.Name
	if *shards > 1 {
		label = fmt.Sprintf("%s, %d shards", prof.Name, *shards)
	}
	fmt.Printf("benchmark      : %s on %s (simulated, virtual time)\n", *benchmarks, label)
	printResult(res, sum)
	total := sum.total()
	fmt.Printf("l0 drain       : %v after the measured window (max_subcompactions %d, compaction_rate %d B/s)\n",
		l0Drain.Round(time.Millisecond), *maxSub, *compRate)
	if *faultProb > 0 {
		fmt.Printf("fault injection: WAL sync prob %.3g heal %v; %d faults injected; final health %v\n",
			*faultProb, *faultHeal, ffs.InjectedCount(), health)
	}
	if *diskQuota > 0 {
		squeezes := int64(0)
		if cyc != nil {
			squeezes = cyc.squeezes
		}
		fmt.Printf("space          : disk quota %d B cycle %v (%d squeezes); fs refused %d ops; engine: %d ENOSPC, %d deferred jobs, %d space waits, %d recoveries; final health %v\n",
			*diskQuota, *quotaCycle, squeezes, ffs.EnospcCount(),
			total.EnospcErrors, total.SpaceDeferrals, total.SpaceWaits, total.SpaceRecoveries, health)
	}
	if finalStats != "" {
		fmt.Print(finalStats)
	}
	fmt.Printf("device         : %v (queue waits sampled at end: %d)\n", dev.Stats(), dev.QueueDepth())
	if walDev != nil {
		fmt.Printf("wal device     : %v\n", walDev.Stats())
	}
	fmt.Fprintf(os.Stderr, "[%v virtual simulated in %v wall]\n", res.Duration.Round(time.Millisecond), time.Since(wall).Round(time.Millisecond))

	if *resultJSON != "" {
		rec := benchRecord{
			Benchmark:           *benchmarks,
			Device:              prof.Name,
			Shards:              *shards,
			Threads:             *threads,
			MaxSubcompactions:   *maxSub,
			CompactionRateBps:   *compRate,
			DurationSeconds:     res.Duration.Seconds(),
			Ops:                 res.Ops(),
			ThroughputOpsPerSec: res.Throughput(),
			L0DrainSeconds:      l0Drain.Seconds(),

			StallDelaySeconds:      total.StallDelayTotal.Seconds(),
			StallStopSeconds:       total.StallStopTotal.Seconds(),
			StallStops:             total.StallStops,
			Compactions:            total.Compactions,
			TrivialMoves:           total.TrivialMoves,
			Subcompactions:         total.Subcompactions,
			CompactionReadBytes:    total.CompactionBytesRead,
			CompactionWrittenBytes: total.CompactionBytesWritten,
		}
		if err := appendResultJSON(*resultJSON, rec); err != nil {
			log.Fatalf("write -result_json: %v", err)
		}
	}
}

// benchRecord is the one-line JSON summary -result_json appends; the
// compaction bench script collects these into BENCH_compaction.json.
type benchRecord struct {
	Benchmark              string  `json:"benchmark"`
	Device                 string  `json:"device"`
	Shards                 int     `json:"shards,omitempty"`
	Threads                int     `json:"threads"`
	MaxSubcompactions      int     `json:"max_subcompactions"`
	CompactionRateBps      int64   `json:"compaction_rate_bytes_per_sec,omitempty"`
	DurationSeconds        float64 `json:"duration_seconds"`
	Ops                    int64   `json:"ops"`
	ThroughputOpsPerSec    float64 `json:"throughput_ops_per_sec"`
	StallDelaySeconds      float64 `json:"stall_delay_seconds"`
	StallStopSeconds       float64 `json:"stall_stop_seconds"`
	StallStops             int64   `json:"stall_stops"`
	L0DrainSeconds         float64 `json:"l0_drain_seconds"`
	Compactions            int64   `json:"compactions"`
	TrivialMoves           int64   `json:"trivial_moves"`
	Subcompactions         int64   `json:"subcompactions"`
	CompactionReadBytes    int64   `json:"compaction_read_bytes"`
	CompactionWrittenBytes int64   `json:"compaction_written_bytes"`
}

func appendResultJSON(path string, rec benchRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drainL0 measures how long background compaction needs to bring
// Level 0 back under the compaction trigger once the measured workload
// stops — the post-burst catch-up the paper's write stalls hinge on.
// Capped at 10 virtual minutes (a wedged engine must not hang the run).
func drainL0(clk clock.Clock, l0 func() int, trigger int) time.Duration {
	start := clk.Now()
	for l0() >= trigger && clk.Now().Sub(start) < 10*time.Minute {
		clk.Sleep(5 * time.Millisecond)
	}
	return clk.Now().Sub(start)
}

func runReal(path string, tweak func(*engine.Options), bench string, threads int, duration time.Duration, num, valueSize int, writeRatio float64, seed int64, stats bool, shards int, hotSkew float64) {
	fs, err := vfs.NewOS(path)
	if err != nil {
		log.Fatalf("open dir: %v", err)
	}
	opts := engine.DefaultOptions(fs)
	tweak(&opts)
	if shards > 1 {
		sdb, err := shardeddb.Open(shardedOptions(opts, shards, num))
		if err != nil {
			log.Fatalf("open sharded: %v", err)
		}
		if addr := sdb.ObsAddr(); addr != "" {
			log.Printf("ops plane on http://%s", addr)
		}
		res := runBenchmark(clock.Real{}, sdb, bench, threads, duration, num, valueSize, writeRatio, seed, shards, hotSkew, func() {})
		var finalStats string
		if stats {
			finalStats = sdb.StatsReport()
		}
		if err := sdb.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
		fmt.Printf("benchmark      : %s on %s (real clock, %d shards)\n", bench, path, shards)
		printResult(res, summarizeSharded(sdb))
		if finalStats != "" {
			fmt.Print(finalStats)
		}
		return
	}
	db, err := engine.Open(opts)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	if addr := db.ObsAddr(); addr != "" {
		log.Printf("ops plane on http://%s", addr)
	}
	res := runBenchmark(clock.Real{}, db, bench, threads, duration, num, valueSize, writeRatio, seed, 0, 0, func() {})
	var finalStats string
	if stats {
		finalStats = db.StatsReport()
	}
	if err := db.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	fmt.Printf("benchmark      : %s on %s (real clock)\n", bench, path)
	printResult(res, summarize(db))
	if finalStats != "" {
		fmt.Print(finalStats)
	}
}

// shardedOptions splits the benchmark keyspace evenly: shard i gets
// keys [num*i/shards, num*(i+1)/shards). With -hot_shard_skew the
// workload then concentrates on the low shards while the boundaries
// stay even — the hot-shard scenario the shared stall budget and
// L0-pressure pool scheduling exist for.
func shardedOptions(eng engine.Options, shards, num int) shardeddb.Options {
	b := make([][]byte, 0, shards-1)
	for i := 1; i < shards; i++ {
		b = append(b, workload.Key(num*i/shards))
	}
	return shardeddb.Options{Shards: shards, Boundaries: b, Engine: eng}
}

func runBenchmark(clk clock.Clock, db workload.KV, bench string, threads int, duration time.Duration, num, valueSize int, writeRatio float64, seed int64, shards int, hotSkew float64, armFaults func()) *workload.Result {
	cfg := workload.Config{
		Workers:      threads,
		Duration:     duration,
		KeySpace:     num,
		ValueSize:    valueSize,
		Seed:         seed,
		Shards:       shards,
		HotShardSkew: hotSkew,
	}
	switch bench {
	case "fillrandom":
		cfg.ReadRatio = 0
	case "readrandom":
		if err := workload.Preload(db, num, valueSize); err != nil {
			log.Fatalf("preload: %v", err)
		}
		cfg.ReadRatio = 1
	case "readrandomwriterandom":
		if err := workload.Preload(db, num, valueSize); err != nil {
			log.Fatalf("preload: %v", err)
		}
		cfg.ReadRatio = 1 - writeRatio
	case "mixed":
		// Dedicated reader and writer pools: read latency here is the
		// pure Get path under concurrent write pressure, the mix the
		// SuperVersion read path is judged on (Get p50/p99 while
		// flushes and compactions churn the version state).
		if err := workload.Preload(db, num, valueSize); err != nil {
			log.Fatalf("preload: %v", err)
		}
		cfg.ReadWorkers = (threads + 1) / 2
		cfg.WriteWorkers = threads - cfg.ReadWorkers
		if cfg.WriteWorkers == 0 {
			cfg.WriteWorkers = 1
		}
	default:
		log.Fatalf("unknown -benchmarks %q", bench)
	}
	armFaults()
	return workload.Run(clk, db, cfg)
}

// summary is what a finished run reports about its store: one metrics
// snapshot per engine (a single one for the bare engine) plus, for a
// sharded store, the resources and transactions its shards share.
type summary struct {
	snaps   []engine.MetricsSnapshot
	sharded *sharedSummary
}

type sharedSummary struct {
	cacheUsed, cacheHits, cacheMisses  int64
	poolGrants                         int64
	cross, aborts, rolledFwd, abortedO int64
}

func summarize(db *engine.DB) summary {
	return summary{snaps: []engine.MetricsSnapshot{db.Metrics().Snapshot()}}
}

func summarizeSharded(sdb *shardeddb.DB) summary {
	sh := &sharedSummary{}
	sh.cacheUsed, sh.cacheHits, sh.cacheMisses = sdb.CacheStats()
	_, _, sh.poolGrants = sdb.Pool().Stats()
	sh.cross, sh.aborts, sh.rolledFwd, sh.abortedO = sdb.TxnStats()
	sum := summary{sharded: sh}
	for i := 0; i < sdb.NumShards(); i++ {
		sum.snaps = append(sum.snaps, sdb.Shard(i).Metrics().Snapshot())
	}
	return sum
}

// total folds the per-engine snapshots into store-wide figures: the
// counters every printed line, the -disk_quota line and -result_json
// read. Waiting-writer means add (the store's total queue depth); the
// max is the deepest single queue.
func (sum summary) total() engine.MetricsSnapshot {
	var t engine.MetricsSnapshot
	for _, s := range sum.snaps {
		t.Flushes += s.Flushes
		t.FlushBytes += s.FlushBytes
		t.Compactions += s.Compactions
		t.CompactionBytesRead += s.CompactionBytesRead
		t.CompactionBytesWritten += s.CompactionBytesWritten
		t.TrivialMoves += s.TrivialMoves
		t.Subcompactions += s.Subcompactions
		t.StallDelayTotal += s.StallDelayTotal
		t.StallStopTotal += s.StallStopTotal
		t.StallStops += s.StallStops
		t.WaitingWritersMean += s.WaitingWritersMean
		if s.WaitingWritersMax > t.WaitingWritersMax {
			t.WaitingWritersMax = s.WaitingWritersMax
		}
		t.SoftErrors += s.SoftErrors
		t.HardErrors += s.HardErrors
		t.RecoveryAttempts += s.RecoveryAttempts
		t.RecoverySuccesses += s.RecoverySuccesses
		t.RecoveryGiveups += s.RecoveryGiveups
		t.GetHitMemtable += s.GetHitMemtable
		t.GetHitImmutable += s.GetHitImmutable
		t.GetHitL0 += s.GetHitL0
		t.GetHitDeep += s.GetHitDeep
		t.GetMisses += s.GetMisses
		t.L0TablesProbed += s.L0TablesProbed
		t.BloomSkips += s.BloomSkips
		t.ScrubPasses += s.ScrubPasses
		t.ScrubbedBytes += s.ScrubbedBytes
		t.CorruptionsDetected += s.CorruptionsDetected
		t.EnospcErrors += s.EnospcErrors
		t.SpaceDeferrals += s.SpaceDeferrals
		t.SpaceWaits += s.SpaceWaits
		t.SpaceRecoveries += s.SpaceRecoveries
	}
	return t
}

func printResult(res *workload.Result, sum summary) {
	m := sum.total()
	fmt.Printf("throughput     : %.1f kop/s (%d ops in %v)\n", res.Throughput()/1000, res.Ops(), res.Duration.Round(time.Millisecond))
	if res.Reads > 0 {
		fmt.Printf("read latency   : %s\n", res.ReadLat)
	}
	if res.Writes > 0 {
		fmt.Printf("write latency  : %s\n", res.WriteLat)
	}
	fmt.Printf("read misses    : %d   errors: %d\n", res.ReadMisses, res.Errors)
	fmt.Printf("flushes        : %d (%d B)   compactions: %d (read %d B, wrote %d B)\n",
		m.Flushes, m.FlushBytes, m.Compactions, m.CompactionBytesRead, m.CompactionBytesWritten)
	fmt.Printf("stalls         : delay %v, stop %v in %d episodes\n",
		m.StallDelayTotal.Round(time.Microsecond), m.StallStopTotal.Round(time.Microsecond), m.StallStops)
	fmt.Printf("waiting writers: mean %.2f, max %d\n", m.WaitingWritersMean, m.WaitingWritersMax)
	if m.SoftErrors+m.HardErrors+m.RecoveryAttempts > 0 {
		fmt.Printf("bg errors      : %d soft, %d hard; recovery %d attempts, %d recovered, %d gave up\n",
			m.SoftErrors, m.HardErrors, m.RecoveryAttempts, m.RecoverySuccesses, m.RecoveryGiveups)
	}
	fmt.Printf("read path      : mem %d, imm %d, L0 %d, deep %d, miss %d; L0 probes %d, bloom skips %d\n",
		m.GetHitMemtable, m.GetHitImmutable, m.GetHitL0, m.GetHitDeep, m.GetMisses, m.L0TablesProbed, m.BloomSkips)
	if m.ScrubPasses+m.ScrubbedBytes > 0 {
		fmt.Printf("scrub          : %d passes, %d B verified, %d corruptions detected\n",
			m.ScrubPasses, m.ScrubbedBytes, m.CorruptionsDetected)
	}
	if s := sum.sharded; s != nil {
		fmt.Printf("shared cache   : %d B used, %d hits, %d misses; pool grants: %d\n",
			s.cacheUsed, s.cacheHits, s.cacheMisses, s.poolGrants)
		if s.cross+s.aborts+s.rolledFwd+s.abortedO > 0 {
			fmt.Printf("cross-shard txn: %d committed, %d aborted, %d rolled forward, %d aborted at open\n",
				s.cross, s.aborts, s.rolledFwd, s.abortedO)
		}
	}
	if len(sum.snaps) > 1 {
		for i, m := range sum.snaps {
			fmt.Printf("  shard %-3d    : %d writes, %d gets, %d flushes, %d compactions, stall %v, write p99 %v\n",
				i, m.Writes, m.Gets, m.Flushes, m.Compactions,
				(m.StallDelayTotal + m.StallStopTotal).Round(time.Microsecond), m.WriteP99)
		}
	}
}

// quotaCycler periodically squeezes the filesystem quota below current
// usage and releases it back to the configured disk size — the
// squeeze/release cadence the wait-for-space recovery path is judged
// on. It runs on the engine clock (virtual in sim mode) alongside the
// workload; wait() blocks until the final release.
type quotaCycler struct {
	done     chan struct{}
	squeezes int64
}

func startQuotaCycler(clk clock.Clock, ffs *faultfs.FS, quota int64, cycle, total time.Duration) *quotaCycler {
	c := &quotaCycler{done: make(chan struct{})}
	n := int(total / cycle)
	clk.Go("quota-cycler", func() {
		defer close(c.done)
		hold := cycle / 10
		if hold <= 0 {
			hold = cycle / 2
		}
		for i := 0; i < n; i++ {
			clk.Sleep(cycle - hold)
			// Squeeze to half of current usage: every write-path byte
			// now hits ENOSPC, exactly like a disk filled by a
			// neighbor — and deep enough that reclaiming obsolete
			// files alone cannot quietly lift the pressure before the
			// workload feels it.
			q := ffs.DiskUsed() / 2
			if q < 1 {
				q = 1
			}
			ffs.SetQuota(q)
			c.squeezes++
			clk.Sleep(hold)
			ffs.SetQuota(quota)
		}
	})
	return c
}

func (c *quotaCycler) wait() { <-c.done }

// settleSpace polls (in engine-clock time) until the store heals after
// the final quota release, nudging with a manual Resume when automatic
// recovery already gave up mid-squeeze. Bounded: a store that cannot
// heal is reported via the final-health field, not a hang.
func settleSpace(clk clock.Clock, health func() engine.Health, resume func() error) {
	for i := 0; i < 2000; i++ {
		if health() == engine.Healthy {
			return
		}
		if i%100 == 99 {
			_ = resume()
		}
		clk.Sleep(5 * time.Millisecond)
	}
}
