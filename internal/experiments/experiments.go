// Package experiments defines one reproducible experiment per figure
// of the paper's evaluation (Figures 1 and 3–20; Figures 2 and 11 are
// schematic illustrations with no data). A figure is data: the cells
// it needs — each one simulated run in a fresh environment (device
// model, virtual-time kernel, engine) at the scaled parameters from
// DESIGN.md — and a rendering of their outcomes into the series the
// paper plots. A Runner simulates each distinct cell once, so figures
// that need the same run share it.
package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/sim"
	"xpointdb/internal/simenv"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/workload"
)

// Scale selects experiment sizing.
type Scale struct {
	// Duration of the measured phase (paper: 300 s).
	Duration time.Duration
	// KeySpace is the number of distinct 1 KB-value keys (sets the
	// dataset size).
	KeySpace int
	// MemtableSize is the default memtable / L0 file size.
	MemtableSize int64
}

// Quick is the default scale: fast enough for iterating, long enough
// for the LSM dynamics (stalls, compactions) to appear. Memtable 2 MB
// stands in for the paper's 64 MB default. Device profiles are used
// as given: the CPU cost model's compaction ceiling (~160 MB/s/thread),
// not device bandwidth, is what lets backlogs form, as on the paper's
// testbed.
func Quick() Scale {
	return Scale{Duration: 8 * time.Second, KeySpace: 32000, MemtableSize: 2 << 20}
}

// Full is closer to the paper's configuration (still scaled in bytes).
func Full() Scale {
	return Scale{Duration: 60 * time.Second, KeySpace: 128000, MemtableSize: 4 << 20}
}

// Devices returns the paper's three devices in presentation order.
func Devices() []storage.Profile {
	return []storage.Profile{storage.SATAFlash(), storage.PCIeFlash(), storage.XPoint()}
}

// Env is one simulated database environment at a scale.
type Env struct {
	*simenv.Env
	Scale Scale
}

// NewEnv builds an environment on profile at scale, applying tweak (if
// non-nil) to the options before use.
func NewEnv(profile storage.Profile, sc Scale, tweak func(*engine.Options)) *Env {
	e := &Env{Env: simenv.New(profile), Scale: sc}
	e.Options.MemtableSize = sc.MemtableSize
	e.Options.TargetFileSize = sc.MemtableSize
	// A shallow base level deepens the tree at the scaled dataset
	// size, restoring the paper's compaction write amplification.
	e.Options.BaseLevelBytes = 2 * sc.MemtableSize
	if tweak != nil {
		tweak(&e.Options)
	}
	return e
}

// RunKV opens the DB, preloads the key space, resets device counters,
// runs fn, and closes — all in virtual time. It returns the workload
// result produced by fn.
func (e *Env) RunKV(fn func(db *engine.DB) *workload.Result) (res *workload.Result, m *engine.Metrics, err error) {
	e.Kernel.Run(func() {
		var db *engine.DB
		db, err = engine.Open(e.Options)
		if err != nil {
			return
		}
		if err = workload.Preload(db, e.Scale.KeySpace, 1024); err != nil {
			db.Close()
			return
		}
		// Let startup compactions settle so the measured phase
		// starts from a steady tree.
		e.settle(db)
		e.Device.ResetStats()
		res = fn(db)
		m = db.Metrics()
		err = db.Close()
	})
	return res, m, err
}

// settle waits (in virtual time) until Level-0 pressure from the
// preload has drained or a bounded settle window elapses.
func (e *Env) settle(db *engine.DB) {
	deadline := e.Kernel.Now().Add(30 * time.Second)
	for e.Kernel.Now().Before(deadline) {
		if db.NumLevelFiles(0) < e.Options.L0CompactionTrigger {
			return
		}
		e.Kernel.Sleep(200 * time.Millisecond)
	}
}

// Mixed runs the standard randomreadrandomwrite workload.
func (e *Env) Mixed(db *engine.DB, workers int, readRatio float64, burst *workload.BurstConfig) *workload.Result {
	return workload.Run(e.Kernel, db, workload.Config{
		Workers:   workers,
		ReadRatio: readRatio,
		Duration:  e.Scale.Duration,
		KeySpace:  e.Scale.KeySpace,
		ValueSize: 1024,
		Seed:      42,
		Burst:     burst,
	})
}

// ---------------------------------------------------------------------
// Reports

// Report is one experiment's output.
type Report struct {
	ID      string
	Title   string
	Paper   string // the shape the paper observed
	Columns []string
	Rows    [][]string
	Notes   string
}

// Table renders the report as aligned text.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

// kops formats an ops/sec value as kop/s.
func kops(v float64) string { return fmt.Sprintf("%.1f", v/1000) }

// us formats a duration in microseconds.
func us(d time.Duration) string { return fmt.Sprintf("%.0f", float64(d.Nanoseconds())/1000) }

// ---------------------------------------------------------------------
// Cells

// cell is every input of one simulated run. Two figures that plan
// equal cells share one run, so a field is here exactly when some
// figure varies it. The device is named, not held: a storage.Profile
// carries a pointer and never equals a fresh copy.
type cell struct {
	device    string // storage.ProfileByName
	raw       bool   // drive the bare device (Fig 1's baseline), no engine
	duration  time.Duration
	keySpace  int
	workers   int
	readRatio float64 // compared exactly: 1-0.9 is not 0.10
	burst     workload.BurstConfig
	sampleL0  bool // sample the L0 file count every 100 ms (Fig 8)

	memtable, targetFile, baseLevel  int64
	l0Compaction, l0Slowdown, l0Stop int
	bloomBits                        int
	disableWAL, syncWAL, adaptiveL0  bool
	throttle                         throttle.Mode
	walDevice                        string // "" = the WAL on the data device
}

// kv is the standard cell: the engine on device with the scale's
// geometry and the engine's defaults for everything else, driven by
// workers clients at readRatio.
func kv(sc Scale, device string, workers int, readRatio float64) cell {
	d := engine.DefaultOptions(nil)
	return cell{
		device: device, duration: sc.Duration, keySpace: sc.KeySpace,
		workers: workers, readRatio: readRatio,
		// The geometry NewEnv sets.
		memtable: sc.MemtableSize, targetFile: sc.MemtableSize, baseLevel: 2 * sc.MemtableSize,
		l0Compaction: d.L0CompactionTrigger, l0Slowdown: d.L0SlowdownTrigger, l0Stop: d.L0StopTrigger,
		bloomBits: d.BloomBitsPerKey, throttle: d.ThrottleMode,
	}
}

// capped limits the run to 8 s: the big-memtable and many-client cells
// simulate enormous op counts, and a shorter window measures the same
// shape.
func capped(sc Scale) Scale {
	if sc.Duration > 8*time.Second {
		sc.Duration = 8 * time.Second
	}
	return sc
}

func (c cell) String() string {
	s := fmt.Sprintf("%s w=%d read=%g %v", c.device, c.workers, c.readRatio, c.duration)
	if c.raw {
		return s + " raw"
	}
	return s + fmt.Sprintf(" mem=%d/%d/%d L0=%d/%d/%d bloom=%d wal(off=%v sync=%v dev=%q) throttle=%d adaptive=%v burst=%v sampleL0=%v",
		c.memtable, c.targetFile, c.baseLevel, c.l0Compaction, c.l0Slowdown, c.l0Stop, c.bloomBits,
		c.disableWAL, c.syncWAL, c.walDevice, c.throttle, c.adaptiveL0, c.burst.Period > 0, c.sampleL0)
}

// outcome is what one cell's run produced.
type outcome struct {
	res *workload.Result
	// Write-queue depth over the run (Fig 16).
	waitingMean float64
	waitingMax  int64
	meanL0      float64 // mean sampled L0 file count (Fig 8)
	err         error
}

// simulate runs c in a fresh environment; Runner.run is its one caller.
func (c cell) simulate() *outcome {
	prof, ok := storage.ProfileByName(c.device)
	wal, walOK := storage.ProfileByName(c.walDevice)
	if !ok || c.walDevice != "" && !walOK {
		return &outcome{err: fmt.Errorf("experiments: unknown device in %v", c)}
	}
	env := NewEnv(prof, Scale{Duration: c.duration, KeySpace: c.keySpace, MemtableSize: c.memtable}, func(o *engine.Options) {
		o.TargetFileSize = c.targetFile
		o.BaseLevelBytes = c.baseLevel
		o.L0CompactionTrigger = c.l0Compaction
		o.L0SlowdownTrigger = c.l0Slowdown
		o.L0StopTrigger = c.l0Stop
		o.BloomBitsPerKey = c.bloomBits
		o.DisableWAL = c.disableWAL
		o.SyncWAL = c.syncWAL
		o.ThrottleMode = c.throttle
		o.AdaptiveL0 = c.adaptiveL0
	})
	out := &outcome{}
	if c.raw {
		env.Kernel.Run(func() {
			out.res = workload.RunRaw(env.Kernel, env.Device, c.workers, c.readRatio, c.duration, 1)
		})
		return out
	}
	if c.walDevice != "" {
		env.WithWALDevice(wal)
	}
	var burst *workload.BurstConfig
	if c.burst.Period > 0 {
		burst = &c.burst
	}
	res, m, err := env.RunKV(func(db *engine.DB) *workload.Result {
		if !c.sampleL0 {
			return env.Mixed(db, c.workers, c.readRatio, burst)
		}
		var stop atomic.Bool
		var sum, samples atomic.Int64
		env.Kernel.Go("l0-sampler", func() {
			for !stop.Load() {
				sum.Add(int64(db.NumLevelFiles(0)))
				samples.Add(1)
				env.Kernel.Sleep(100 * time.Millisecond)
			}
		})
		res := env.Mixed(db, c.workers, c.readRatio, burst)
		stop.Store(true)
		if n := samples.Load(); n > 0 {
			out.meanL0 = float64(sum.Load()) / float64(n)
		}
		return res
	})
	if err != nil {
		return &outcome{err: err}
	}
	out.res = res
	out.waitingMean = m.WaitingWriters.Mean()
	out.waitingMax = m.WaitingWriters.Max()
	return out
}

// ---------------------------------------------------------------------
// Figures and the Runner

// figure is one entry of the figure table: the cells it needs at a
// scale, and the report drawn from their outcomes (in plan order).
type figure struct {
	id     string
	plan   func(Scale) []cell
	render func([]*outcome) *Report
}

// figures is every experiment, in paper order.
var figures = []figure{
	{"fig1", planFig1, renderFig1},
	{"fig3", planFig3, renderFig3},
	timeline("fig4", "Throughput over time, 5% writes (4 workers)",
		"stable rates; 3D XPoint well above both flash SSDs", 0.95),
	// At 90% writes the throttling mechanism periodically drags 3D
	// XPoint from ~169 kop/s to a few kop/s.
	timeline("fig5", "Throughput over time, 90% writes (4 workers)",
		"periodic throttling pulls 3D XPoint from ~169 kop/s to as low as ~3 kop/s; devices converge", 0.10),
	latencyFigure("fig6", "READ latency at 90% writes (4 workers)",
		"p90 read: 839 µs SATA flash vs 251 µs 3D XPoint — reads stay much faster on XPoint",
		perDevice(4, 0.10), true, true),
	latencyFigure("fig7", "WRITE latency at 90% writes (4 workers)",
		"p90 write: 28 µs SATA flash vs 26 µs 3D XPoint — buffered writes mask the device difference",
		perDevice(4, 0.10), false, true),
	{"fig8", planL0Size, renderFig8},
	l0CountFigure("fig9", "Throughput (kop/s) vs number of Level-0 files (1:1, 4 workers)",
		"throughput falls as L0 files grow — and falls *more* on 3D XPoint (−19.9% from 2→8 files) than on PCIe flash (−12.3%)",
		func(res *workload.Result) string { return kops(res.Throughput()) }),
	l0CountFigure("fig10", "READ p90 (µs) vs number of Level-0 files (1:1, 4 workers)",
		"on 3D XPoint p90 read drops from 134 µs at 8 files to 101 µs at 2 — every extra L0 file is another table to probe",
		func(res *workload.Result) string { return us(res.ReadLat.Percentile(90)) }),
	{"fig12", planL0Size, renderFig12},
	{"fig13", planFig13, renderFig13},
	latencyFigure("fig14", "READ latency at 32 threads (1:1)",
		"p90 read 335 µs on 3D XPoint vs 1.4 ms on SATA flash (−76%)", plan32, true, false),
	latencyFigure("fig15", "WRITE latency at 32 threads (1:1)",
		"p90 write 440 µs on 3D XPoint vs 47 µs on SATA flash — the fast device loses on write tails under interference",
		plan32, false, false),
	{"fig16", plan32, renderFig16},
	{"fig17", planFig17, renderFig17},
	{"fig18", planFig18, renderFig18},
	{"fig19", planFig19, renderFig19},
	{"fig20", planFig20, renderFig20},
}

// Runner executes experiments by figure ID. It simulates each distinct
// cell once and keeps the outcome, so figures that need the same run
// (DESIGN §3 lists them) share it.
type Runner struct {
	Scale Scale
	// Verbose, if set, gets one line per simulated cell and one per
	// cell served from an earlier run.
	Verbose func(format string, args ...interface{})

	memo map[cell]*outcome
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Verbose != nil {
		r.Verbose(format, args...)
	}
}

// All returns every experiment ID in paper order.
func All() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Run executes the experiment with the given figure ID.
func (r *Runner) Run(id string) (*Report, error) {
	for _, f := range figures {
		if f.id != id {
			continue
		}
		outs, err := r.run(f.plan(r.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		return f.render(outs), nil
	}
	return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, All())
}

// run returns the outcome of each cell, in order, simulating the cells
// no earlier call has run. Those run concurrently (each cell builds its
// own kernel and shares nothing); the memo, the log and the first
// failure are then taken in plan order, as a run one cell at a time
// would take them.
func (r *Runner) run(cells []cell) ([]*outcome, error) {
	if r.memo == nil {
		r.memo = make(map[cell]*outcome)
	}
	var todo []cell
	slot := make(map[cell]int) // each new cell's index in todo
	for _, c := range cells {
		if _, ok := r.memo[c]; ok {
			continue
		}
		if _, ok := slot[c]; !ok {
			slot[c] = len(todo)
			todo = append(todo, c)
		}
	}
	ran := make([]*outcome, len(todo))
	sim.Each(len(todo), func(i int) { ran[i] = todo[i].simulate() })
	outs := make([]*outcome, len(cells))
	for i, c := range cells {
		o, ok := r.memo[c]
		if ok {
			r.logf("shared %v", c)
		} else {
			o = ran[slot[c]]
			r.memo[c] = o
			r.logf("ran %v: %v", c, o.res)
		}
		if o.err != nil {
			return nil, fmt.Errorf("%v: %w", c, o.err)
		}
		outs[i] = o
	}
	return outs, nil
}
