// Package experiments defines one reproducible experiment per figure
// of the paper's evaluation (Figures 1 and 3–20; Figures 2 and 11 are
// schematic illustrations with no data). Each experiment builds a
// fresh simulated environment per cell — device model, virtual-time
// kernel, engine — runs the paper's workload at the scaled parameters
// from DESIGN.md, and reports the same series the paper plots.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/simenv"
	"xpointdb/internal/storage"
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

// Runner executes experiments by figure ID. Sweeps shared by several
// figures (the L0 size sweep behind Figs 8/12, the parallelism sweep
// behind Figs 13–16) are memoized per Runner.
type Runner struct {
	Scale   Scale
	Verbose func(format string, args ...interface{})

	l0Sweep     map[int64]*l0Cell
	l0Counts    map[string]*workload.Result // key: "<device>/<n>"
	parallel32C map[string]*parallelCell
	parallelAll map[string]map[int]*parallelCell
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Verbose != nil {
		r.Verbose(format, args...)
	}
}

// All returns every experiment ID in paper order.
func All() []string {
	return []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20",
	}
}

// Run executes the experiment with the given figure ID.
func (r *Runner) Run(id string) (*Report, error) {
	switch id {
	case "fig1":
		return r.Fig1(), nil
	case "fig3":
		return r.Fig3(), nil
	case "fig4":
		return r.Fig4(), nil
	case "fig5":
		return r.Fig5(), nil
	case "fig6":
		return r.Fig6(), nil
	case "fig7":
		return r.Fig7(), nil
	case "fig8":
		return r.Fig8(), nil
	case "fig9":
		return r.Fig9(), nil
	case "fig10":
		return r.Fig10(), nil
	case "fig12":
		return r.Fig12(), nil
	case "fig13":
		return r.Fig13(), nil
	case "fig14":
		return r.Fig14(), nil
	case "fig15":
		return r.Fig15(), nil
	case "fig16":
		return r.Fig16(), nil
	case "fig17":
		return r.Fig17(), nil
	case "fig18":
		return r.Fig18(), nil
	case "fig19":
		return r.Fig19(), nil
	case "fig20":
		return r.Fig20(), nil
	}
	return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, All())
}
