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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/kvstore"
	"xpointdb/internal/simenv"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
	"xpointdb/internal/workload"
)

func main() {
	log.SetFlags(0)
	cfg, err := parse(os.Args[1:])
	if err == nil {
		_, err = execute(cfg, os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// config is every dbbench flag plus what validate resolves from them.
type config struct {
	device, path, walDevice, bench, throttle, eventLog, serveAddr string
	threads, num, valueSize, shards, maxSub                       int
	memtable, scrubRate, diskQuota, compRate, seed                int64
	duration, statsIntv, faultHeal, slowOp, quotaCycle            time.Duration
	writeRatio, faultProb, hotSkew                                float64
	disableWAL, pipelined, stats, perf, scrub                     bool

	prof, walProf storage.Profile // -device and -wal_device, when simulated
}

// parse binds the flags, parses args and validates the result: every
// flag error surfaces here, before any store is opened.
func parse(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("dbbench", flag.ExitOnError)
	fs.StringVar(&c.device, "device", "xpoint", "simulated device: sata | pcie | xpoint | nvm | null")
	fs.StringVar(&c.path, "path", "", "run on a real directory with the real clock instead of a simulated device")
	fs.StringVar(&c.bench, "benchmarks", "readrandomwriterandom", "comma-free single benchmark: fillrandom | readrandom | readrandomwriterandom | mixed")
	fs.IntVar(&c.threads, "threads", 4, "concurrent client threads")
	fs.DurationVar(&c.duration, "duration", 10*time.Second, "measured duration")
	fs.IntVar(&c.num, "num", 24000, "distinct keys")
	fs.IntVar(&c.valueSize, "value_size", 1024, "value size in bytes")
	fs.Float64Var(&c.writeRatio, "write_ratio", 0.5, "write fraction for readrandomwriterandom")
	fs.Int64Var(&c.memtable, "memtable_size", 2<<20, "memtable bytes")
	fs.BoolVar(&c.disableWAL, "disable_wal", false, "run without the write-ahead log")
	fs.StringVar(&c.walDevice, "wal_device", "", "place the WAL on a separate simulated device (e.g. nvm; simulated device only)")
	fs.BoolVar(&c.pipelined, "pipelined", true, "pipelined writes (paper Algorithm 2)")
	fs.StringVar(&c.throttle, "throttle", "algo1", "write controller: none | algo1 | twostage")
	fs.Int64Var(&c.seed, "seed", 42, "workload seed")
	fs.BoolVar(&c.stats, "stats", false, "end with the full stats report (health, LSM shape, per-level table around the metrics section) instead of the metrics section alone")
	fs.DurationVar(&c.statsIntv, "statsinterval", 0, "periodic stats dump interval in engine-clock time (0 disables); dumps go to stderr")
	fs.StringVar(&c.eventLog, "eventlog", "", "write the structured engine event stream (JSON lines) to this file")
	fs.BoolVar(&c.perf, "perf", false, "collect per-operation stage timings (PerfContext histograms)")
	fs.BoolVar(&c.scrub, "scrub", true, "run the background checksum scrubber during the benchmark (-scrub=false disables; rate via -scrub_rate)")
	fs.Int64Var(&c.scrubRate, "scrub_rate", 0, "scrubber budget in bytes/sec (0 = engine default)")
	fs.Float64Var(&c.faultProb, "faultprob", 0, "inject WAL sync failures with this probability (simulated device only); exercises error recovery under load")
	fs.DurationVar(&c.faultHeal, "faultheal", 0, "heal the injected fault this long (engine-clock time) after it first matches (0 = faults persist for the whole run)")
	fs.StringVar(&c.serveAddr, "serve", "", "serve the HTTP ops plane on this address during the run (e.g. :8080 or 127.0.0.1:0); /metrics, /events, /stats, /healthz, /debug/pprof and a dashboard at / (engine time is virtual without -path; prefer -path for interactive browsing)")
	fs.DurationVar(&c.slowOp, "slowop", 0, "trace operations slower than this as slow_op events with a stage breakdown (0 disables)")
	fs.IntVar(&c.shards, "shards", 0, "range-shard the store across this many engine instances with shared cache/pool/controller (0 or 1 = the bare single engine); boundaries split -num keys evenly")
	fs.Float64Var(&c.hotSkew, "hot_shard_skew", 0, "with -shards > 1: draw keys zipfian-hot toward shard 0 with this skew parameter (> 1; 0 = uniform)")
	fs.Int64Var(&c.diskQuota, "disk_quota", 0, "model a disk of this many bytes (simulated device only): the filesystem fails with ENOSPC past it, and the engine's space budget (MaxAllowedSpace) defends the same cap; armed after preload")
	fs.DurationVar(&c.quotaCycle, "quota_cycle", 0, "with -disk_quota: periodically squeeze the quota below current usage for 10% of each cycle and release it — the full-disk squeeze/release cadence wait-for-space recovery is judged on")
	fs.IntVar(&c.maxSub, "max_subcompactions", 1, "split each merging compaction into up to K concurrent key-range sub-compactions (1 = single merge loop)")
	fs.Int64Var(&c.compRate, "compaction_rate", 0, "compaction I/O rate limit in bytes/sec shared by all sub-compactions (0 = unlimited)")
	_ = fs.Parse(args) // ExitOnError
	return c, c.validate()
}

var throttleModes = map[string]throttle.Mode{
	"none": throttle.ModeNone, "algo1": throttle.ModeAlgorithm1, "twostage": throttle.ModeTwoStage,
}

func (c *config) validate() error {
	// Fault injection, the capacity quota and the second device all
	// wrap or sit beside the in-memory filesystem, not a real directory.
	simOnly := func(name string) error {
		return fmt.Errorf("%s requires the simulated device (it cannot be combined with -path)", name)
	}
	switch {
	case c.path != "" && c.faultProb > 0:
		return simOnly("-faultprob")
	case c.path != "" && c.diskQuota > 0:
		return simOnly("-disk_quota")
	case c.path != "" && c.walDevice != "":
		return simOnly("-wal_device")
	case c.quotaCycle > 0 && c.diskQuota <= 0:
		return errors.New("-quota_cycle requires -disk_quota")
	case c.shards < 0:
		return fmt.Errorf("-shards must be >= 0, got %d", c.shards)
	case c.hotSkew != 0 && c.hotSkew <= 1:
		return fmt.Errorf("-hot_shard_skew must be > 1 (zipf s parameter), got %g", c.hotSkew)
	case c.hotSkew > 1 && c.shards < 2:
		return errors.New("-hot_shard_skew requires -shards > 1")
	}
	switch c.bench {
	case "fillrandom", "readrandom", "readrandomwriterandom", "mixed":
	default:
		return fmt.Errorf("unknown -benchmarks %q", c.bench)
	}
	if _, ok := throttleModes[c.throttle]; !ok {
		return fmt.Errorf("unknown -throttle %q", c.throttle)
	}
	if c.path != "" {
		return nil
	}
	var ok bool
	if c.prof, ok = storage.ProfileByName(c.device); !ok {
		return fmt.Errorf("unknown -device %q", c.device)
	}
	if c.walDevice != "" {
		if c.walProf, ok = storage.ProfileByName(c.walDevice); !ok {
			return fmt.Errorf("unknown -wal_device %q", c.walDevice)
		}
	}
	return nil
}

// tune applies the flags to the substrate's default options.
func (c *config) tune(o *engine.Options, evLog *events.EventLog) {
	o.MemtableSize = c.memtable
	o.TargetFileSize = c.memtable
	o.BaseLevelBytes = 4 * c.memtable
	o.MaxSubcompactions = c.maxSub
	o.CompactionRateBytesPerSec = c.compRate
	o.DisableWAL = c.disableWAL
	o.PipelinedWrites = c.pipelined
	o.ThrottleMode = throttleModes[c.throttle]
	o.CollectPerf = c.perf
	o.DisableScrub = !c.scrub
	o.ScrubBytesPerSec = c.scrubRate // 0 = engine default
	if evLog != nil {
		o.EventListener = evLog
	}
	o.ObsAddr = c.serveAddr
	o.SlowOpThreshold = c.slowOp
	o.StatsDumpInterval = c.statsIntv
	o.StatsWriter = os.Stderr
	// The engine budget defends the same cap the quota enforces, so
	// the degradation ladder and job deferral engage before ENOSPC;
	// the cycle's squeeze below usage is what forces the latch.
	o.MaxAllowedSpace = c.diskQuota
}

// execute builds the substrate the flags name — a simulated device
// under a virtual-time kernel, or a real directory under the real
// clock — runs the one benchmark body on it and prints the report.
func execute(cfg *config, out io.Writer) (r *report, err error) {
	var evLog *events.EventLog
	if cfg.eventLog != "" {
		f, err := os.Create(cfg.eventLog)
		if err != nil {
			return nil, fmt.Errorf("create -eventlog: %w", err)
		}
		evLog = events.NewEventLog(f)
		defer func() { err = errors.Join(err, evLog.Close()) }()
	}

	if cfg.path != "" {
		fs, err := vfs.NewOS(cfg.path)
		if err != nil {
			return nil, fmt.Errorf("open dir: %w", err)
		}
		opts := engine.DefaultOptions(fs)
		opts.Clock = clock.Real{}
		cfg.tune(&opts, evLog)
		if r, err = run(cfg, opts, nil); err == nil {
			r.print(out, cfg, cfg.path, "real clock", "")
		}
		return r, err
	}

	env := simenv.New(cfg.prof)
	if cfg.walDevice != "" {
		env.WithWALDevice(cfg.walProf)
	}
	var ffs *faultfs.FS
	if cfg.faultProb > 0 || cfg.diskQuota > 0 {
		if ffs, err = faultfs.New(env.FS, env.Kernel, cfg.seed); err != nil {
			return nil, err
		}
		env.Options.FS = ffs
	}
	cfg.tune(&env.Options, evLog)
	wall := time.Now()
	env.Kernel.Run(func() { r, err = run(cfg, env.Options, ffs) })
	if err != nil {
		return nil, err
	}
	device := fmt.Sprintf("device         : %v (queue waits sampled at end: %d)\n", env.Device.Stats(), env.Device.QueueDepth())
	if env.WALDevice != nil {
		device += fmt.Sprintf("wal device     : %v\n", env.WALDevice.Stats())
	}
	r.print(out, cfg, cfg.prof.Name, "simulated, virtual time", device)
	fmt.Fprintf(os.Stderr, "[%v virtual simulated in %v wall]\n", r.res.Duration.Round(time.Millisecond), time.Since(wall).Round(time.Millisecond))
	return r, nil
}

// report is what one finished run hands to the printer: the workload
// result, the store's rendered metrics section (its full stats report
// with -stats) and what the substrate around the store saw.
type report struct {
	res      *workload.Result
	health   engine.Health
	l0Drain  time.Duration
	stats    string
	injected int64 // -faultprob: faults the filesystem injected
	refused  int64 // -disk_quota: ops the filesystem refused with ENOSPC
	squeezes int64 // -quota_cycle
}

// run is the one benchmark body, the same on every substrate and for
// one engine or many: open, preload, arm the nemesis, measure, settle,
// drain Level 0, render the store's metrics, close. opts carries the substrate (FS,
// clock, cost model); ffs is the fault-injecting filesystem under it,
// nil without -faultprob/-disk_quota. The simulator calls run inside
// Kernel.Run, the real clock directly.
func run(cfg *config, opts engine.Options, ffs *faultfs.FS) (*report, error) {
	clk := opts.Clock
	st, err := kvstore.Open(opts, cfg.shards, cfg.boundaries())
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if addr := st.ObsAddr(); addr != "" {
		log.Printf("ops plane on http://%s", addr)
	}
	wcfg, err := cfg.workload(st)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	// Faults and the quota arm only after open and preload: the
	// benchmark measures recovery under load on a full-but-working
	// disk, not a DB that cannot start or fill.
	cyc := cfg.arm(clk, ffs)
	r := &report{res: workload.Run(clk, st, wcfg)}
	if cyc != nil {
		<-cyc.done
		settleSpace(clk, st)
		r.squeezes = cyc.squeezes
	}
	r.l0Drain = drainL0(clk, st, opts.L0CompactionTrigger)
	r.health = st.Health()
	if cfg.stats {
		r.stats = st.StatsReport()
	} else {
		var b strings.Builder
		engine.WriteStats(&b, st.Engines(), st.Shared())
		r.stats = b.String()
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if ffs != nil {
		r.injected, r.refused = ffs.InjectedCount(), ffs.EnospcCount()
	}
	return r, nil
}

// boundaries splits the benchmark keyspace evenly: shard i gets keys
// [num*i/shards, num*(i+1)/shards). With -hot_shard_skew the workload
// then concentrates on the low shards while the boundaries stay even —
// the hot-shard scenario the shared stall budget and L0-pressure pool
// scheduling exist for.
func (c *config) boundaries() (b [][]byte) {
	for i := 1; i < c.shards; i++ {
		b = append(b, workload.Key(c.num*i/c.shards))
	}
	return b
}

// workload turns -benchmarks into the runner's configuration,
// preloading the key space for every benchmark that reads.
func (c *config) workload(db workload.KV) (workload.Config, error) {
	w := workload.Config{
		Workers:   c.threads,
		Duration:  c.duration,
		KeySpace:  c.num,
		ValueSize: c.valueSize,
		Seed:      c.seed,
		// Only read together, and validate ties the skew to -shards > 1.
		Shards:       c.shards,
		HotShardSkew: c.hotSkew,
	}
	switch c.bench {
	case "fillrandom":
		return w, nil
	case "readrandom":
		w.ReadRatio = 1
	case "readrandomwriterandom":
		w.ReadRatio = 1 - c.writeRatio
	case "mixed":
		// Dedicated reader and writer pools: read latency here is the
		// pure Get path under concurrent write pressure, the mix the
		// SuperVersion read path is judged on (Get p50/p99 while
		// flushes and compactions churn the version state).
		w.ReadWorkers = (c.threads + 1) / 2
		w.WriteWorkers = max(c.threads-w.ReadWorkers, 1)
	}
	if err := workload.Preload(db, c.num, c.valueSize); err != nil {
		return w, fmt.Errorf("preload: %w", err)
	}
	return w, nil
}

// arm installs the -faultprob rule and the -disk_quota cap on ffs
// (non-nil whenever either flag is set) and starts the -quota_cycle
// squeezer (nil without one).
func (c *config) arm(clk clock.Clock, ffs *faultfs.FS) *quotaCycler {
	if c.faultProb > 0 {
		// Sharded WALs live under "shard-NNN/", so the glob needs the
		// extra path element (path.Match wildcards do not cross '/').
		pat := "*.log"
		if c.shards > 1 {
			pat = "*/*.log"
		}
		ffs.AddRule(faultfs.Rule{
			Ops:       []faultfs.Op{faultfs.OpSync},
			Path:      pat,
			Prob:      c.faultProb,
			HealAfter: c.faultHeal,
		})
	}
	if c.diskQuota > 0 {
		ffs.SetQuota(c.diskQuota)
		if c.quotaCycle > 0 {
			return startQuotaCycler(clk, ffs, c.diskQuota, c.quotaCycle, c.duration)
		}
	}
	return nil
}

// drainL0 measures how long background compaction needs to bring
// Level 0 of every engine back under the compaction trigger once the
// measured workload stops: the post-burst catch-up the paper's write
// stalls hinge on. Capped at 10 minutes of engine-clock time (a wedged
// engine must not hang the run).
func drainL0(clk clock.Clock, st kvstore.Store, trigger int) time.Duration {
	start := clk.Now()
	for _, e := range st.Engines() {
		for e.NumLevelFiles(0) >= trigger && clk.Now().Sub(start) < 10*time.Minute {
			clk.Sleep(5 * time.Millisecond)
		}
	}
	return clk.Now().Sub(start)
}

// settleSpace polls (in engine-clock time) until the store heals after
// the final quota release, nudging with a manual Resume when automatic
// recovery already gave up mid-squeeze. Bounded: a store that cannot
// heal is reported via the final-health field, not a hang.
func settleSpace(clk clock.Clock, st kvstore.Store) {
	for i := 0; i < 2000 && st.Health() != engine.Healthy; i++ {
		if i%100 == 99 {
			_ = st.Resume()
		}
		clk.Sleep(5 * time.Millisecond)
	}
}

// print writes the report: the workload's own lines, what the substrate
// saw, then the store's rendered metrics. target names what the store
// ran on (a device profile or a directory), mode how its time passed,
// device the simulated devices' lines ("" on the real clock).
func (r *report) print(w io.Writer, cfg *config, target, mode, device string) {
	res := r.res
	if cfg.shards > 1 {
		target = fmt.Sprintf("%s, %d shards", target, cfg.shards)
	}
	fmt.Fprintf(w, "benchmark      : %s on %s (%s)\n", cfg.bench, target, mode)
	fmt.Fprintf(w, "throughput     : %.1f kop/s (%d ops in %v)\n", res.Throughput()/1000, res.Ops(), res.Duration.Round(time.Millisecond))
	if res.Reads > 0 {
		fmt.Fprintf(w, "read latency   : %s\n", res.ReadLat)
	}
	if res.Writes > 0 {
		fmt.Fprintf(w, "write latency  : %s\n", res.WriteLat)
	}
	fmt.Fprintf(w, "read misses    : %d   errors: %d\n", res.ReadMisses, res.Errors)
	fmt.Fprintf(w, "l0 drain       : %v after the measured window (max_subcompactions %d, compaction_rate %d B/s)\n",
		r.l0Drain.Round(time.Millisecond), cfg.maxSub, cfg.compRate)
	fmt.Fprintf(w, "health         : %v at the end of the run\n", r.health)
	if cfg.faultProb > 0 {
		fmt.Fprintf(w, "fault injection: WAL sync prob %.3g heal %v; %d faults injected; final health %v\n",
			cfg.faultProb, cfg.faultHeal, r.injected, r.health)
	}
	if cfg.diskQuota > 0 {
		fmt.Fprintf(w, "space          : disk quota %d B cycle %v (%d squeezes); fs refused %d ops; final health %v\n",
			cfg.diskQuota, cfg.quotaCycle, r.squeezes, r.refused, r.health)
	}
	fmt.Fprint(w, device, r.stats)
}

// quotaCycler periodically squeezes the filesystem quota below current
// usage and releases it back to the configured disk size — the
// squeeze/release cadence the wait-for-space recovery path is judged
// on. It runs on the engine clock (virtual in sim mode) alongside the
// workload; done closes after the final release.
type quotaCycler struct {
	done     chan struct{}
	squeezes int64
}

func startQuotaCycler(clk clock.Clock, ffs *faultfs.FS, quota int64, cycle, total time.Duration) *quotaCycler {
	c := &quotaCycler{done: make(chan struct{})}
	clk.Go("quota-cycler", func() {
		defer close(c.done)
		hold := cycle / 10
		if hold <= 0 {
			hold = cycle / 2
		}
		for i := 0; i < int(total/cycle); i++ {
			clk.Sleep(cycle - hold)
			// Squeeze to half of current usage: every write-path byte
			// now hits ENOSPC, exactly like a disk filled by a
			// neighbor — and deep enough that reclaiming obsolete
			// files alone cannot quietly lift the pressure before the
			// workload feels it.
			ffs.SetQuota(max(ffs.DiskUsed()/2, 1))
			c.squeezes++
			clk.Sleep(hold)
			ffs.SetQuota(quota)
		}
	})
	return c
}
