package experiments

import (
	"fmt"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/workload"
)

// Case-study experiments (Figures 18–20).

// burstConfig is the paper's "flash of crowd" pattern: a 1:1 baseline
// with a 25-seconds-per-minute burst at read:write 1:9.
func burstConfig() *workload.BurstConfig {
	return &workload.BurstConfig{
		Period:         time.Minute,
		BurstLen:       25 * time.Second,
		BurstReadRatio: 0.1,
	}
}

// Fig18 compares the original Algorithm 1 throttling against the
// two-stage variant under periodic write bursts on 3D XPoint; the
// original shows near-stop windows (<10 kop/s), the two-stage doesn't.
func (r *Runner) Fig18() *Report {
	rep := &Report{
		ID:      "fig18",
		Title:   "Throughput over time with periodic write bursts (1:1 base, 25s/min at 1:9; 3D XPoint)",
		Paper:   "original throttling dips to ~9–12 kop/s near-stop windows; two-stage throttling removes them",
		Columns: []string{"t(s)", "algorithm1 kop/s", "two-stage kop/s"},
	}
	// Bursts need at least one full period to show. At the default
	// scale the paper's 60 s period / 25 s burst pattern runs for 90
	// virtual seconds; tiny scales (the bench suite) use a shrunken
	// burst pattern instead so the experiment stays cheap.
	sc := r.Scale
	burst := burstConfig()
	if sc.Duration < 5*time.Second {
		// Bench/tiny scales: a shrunken burst pattern keeps the
		// experiment cheap while still alternating the mix.
		sc.Duration = 12 * time.Second
		burst = &workload.BurstConfig{
			Period:         6 * time.Second,
			BurstLen:       2500 * time.Millisecond,
			BurstReadRatio: 0.1,
		}
	} else if sc.Duration < 90*time.Second {
		// Quick/full scales run the paper's true pattern (60 s
		// period, 25 s bursts) for at least 1.5 periods.
		sc.Duration = 90 * time.Second
	}
	series := make(map[string][]float64)
	mins := make(map[string]float64)
	for _, mode := range []throttle.Mode{throttle.ModeAlgorithm1, throttle.ModeTwoStage} {
		mode := mode
		env := NewEnv(storage.XPoint(), sc, func(o *engine.Options) {
			// Two-stage's stage-1 floor is half the 16 MiB/s starting
			// rate.
			o.ThrottleMode = mode
			// RocksDB's 20/36 thresholds assume 64 MB files against
			// a 100 GB dataset (0.08 dataset fractions); at the
			// scaled 2 MB files / tens-of-MB dataset they would
			// exceed the whole database. Scale them to the same
			// multiples of the compaction trigger the paper's setup
			// effectively exercises under bursts.
			o.L0SlowdownTrigger = 8
			o.L0StopTrigger = 16
		})
		res, _, err := env.RunKV(func(db *engine.DB) *workload.Result {
			return workload.Run(env.Kernel, db, workload.Config{
				Workers:   4,
				ReadRatio: 0.5,
				Duration:  sc.Duration,
				KeySpace:  sc.KeySpace,
				ValueSize: 1024,
				Seed:      42,
				Burst:     burst,
			})
		})
		if err != nil {
			rep.Notes = "error: " + err.Error()
			return rep
		}
		name := modeName(mode)
		pts := res.Series.Points()
		if len(pts) > 0 {
			pts = pts[:len(pts)-1] // drop the final partial bucket
		}
		rates := make([]float64, len(pts))
		min := -1.0
		for i, p := range pts {
			rates[i] = p.Rate
			// Ignore the first ramp-up second when hunting the min.
			if i >= 1 && (min < 0 || p.Rate < min) {
				min = p.Rate
			}
		}
		series[name] = rates
		mins[name] = min
		r.logf("fig18 %s: %s (min rate %.1f kop/s)", name, res, min/1000)
	}
	a, b := series["algorithm1"], series["two-stage"]
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for t := 0; t < n; t++ {
		row := []string{fmt.Sprintf("%d", t)}
		for _, s := range [][]float64{a, b} {
			if t < len(s) {
				row = append(row, kops(s[t]))
			} else {
				row = append(row, "-")
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = fmt.Sprintf("min per-second rate: algorithm1=%.1f kop/s, two-stage=%.1f kop/s",
		mins["algorithm1"]/1000, mins["two-stage"]/1000)
	return rep
}

func modeName(m throttle.Mode) string {
	switch m {
	case throttle.ModeTwoStage:
		return "two-stage"
	case throttle.ModeAlgorithm1:
		return "algorithm1"
	}
	return "none"
}

// Fig19 compares default Level-0 management against case study B's
// dynamic management across read ratios on 3D XPoint.
func (r *Runner) Fig19() *Report {
	rep := &Report{
		ID:      "fig19",
		Title:   "Throughput vs read ratio: default vs dynamic Level-0 management (3D XPoint, 4 workers)",
		Paper:   "dynamic L0 wins in most cases; +13% at 90% reads (77→87 kop/s); parity at 5% reads",
		Columns: []string{"read%", "default kop/s", "dynamic kop/s", "gain"},
	}
	ratios := []int{5, 25, 50, 75, 90}
	for _, pct := range ratios {
		var tp [2]float64
		for i, adaptive := range []bool{false, true} {
			adaptive := adaptive
			env := NewEnv(storage.XPoint(), r.Scale, func(o *engine.Options) {
				// The paper's configuration: throttle at 24 L0 files;
				// aggregate L0 volume constant (24 memtables).
				o.AdaptiveL0 = adaptive
				o.L0SlowdownTrigger = 24
				o.L0StopTrigger = 36
			})
			res, _, err := env.RunKV(func(db *engine.DB) *workload.Result {
				return env.Mixed(db, 4, float64(pct)/100, nil)
			})
			if err != nil {
				rep.Notes = "error: " + err.Error()
				return rep
			}
			tp[i] = res.Throughput()
			r.logf("fig19 read=%d%% adaptive=%v: %s", pct, adaptive, res)
		}
		gain := "-"
		if tp[0] > 0 {
			gain = fmt.Sprintf("%+.1f%%", (tp[1]/tp[0]-1)*100)
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", pct), kops(tp[0]), kops(tp[1]), gain})
	}
	return rep
}

// Fig20 compares WAL placement at 50% inserts on 3D XPoint: WAL on the
// data device, WAL on NVM (case study C), and WAL disabled.
func (r *Runner) Fig20() *Report {
	rep := &Report{
		ID:      "fig20",
		Title:   "WRITE latency vs logging configuration (50% writes, 4 workers, 3D XPoint data device)",
		Paper:   "NVM logging cuts p90 write latency ~18.8% (16→13 µs); disabling WAL is still faster — logging overhead is not fully removable by placement",
		Columns: []string{"wal", "p50(us)", "p90(us)", "p99(us)", "kop/s"},
	}
	type cfg struct {
		name    string
		disable bool
		nvm     bool
	}
	for _, c := range []cfg{
		{"data-device", false, false},
		{"nvm", false, true},
		{"off", true, false},
	} {
		c := c
		env := NewEnv(storage.XPoint(), r.Scale, func(o *engine.Options) {
			o.DisableWAL = c.disable
			// Case study C presumes commits reach the log device
			// (that is what makes its placement matter); run the
			// comparison in the durable-WAL configuration.
			o.SyncWAL = true
		})
		if c.nvm {
			env.WithWALDevice(storage.NVM())
		}
		res, _, err := env.RunKV(func(db *engine.DB) *workload.Result {
			return env.Mixed(db, 4, 0.5, nil)
		})
		if err != nil {
			rep.Notes = "error: " + err.Error()
			return rep
		}
		rep.Rows = append(rep.Rows, []string{
			c.name,
			us(res.WriteLat.Percentile(50)),
			us(res.WriteLat.Percentile(90)),
			us(res.WriteLat.Percentile(99)),
			kops(res.Throughput()),
		})
		r.logf("fig20 wal=%s: %s", c.name, res)
	}
	return rep
}
