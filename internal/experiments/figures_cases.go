package experiments

import (
	"fmt"
	"time"

	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/workload"
)

// Case-study experiments (Figures 18–20).

// throttleModes are Fig 18's columns.
var throttleModes = []struct {
	name string
	mode throttle.Mode
}{{"algorithm1", throttle.ModeAlgorithm1}, {"two-stage", throttle.ModeTwoStage}}

// Fig 18 compares the original Algorithm 1 throttling against the
// two-stage variant under periodic write bursts on 3D XPoint; the
// original shows near-stop windows (<10 kop/s), the two-stage doesn't.
// The burst is the paper's "flash of crowd" pattern: a 1:1 baseline
// with a 25-seconds-per-minute burst at read:write 1:9.
func planFig18(sc Scale) []cell {
	// Bursts need at least one full period to show. Quick and full
	// scales run the paper's true pattern (60 s period, 25 s bursts)
	// for at least 1.5 periods; tiny scales (the bench suite) use a
	// shrunken pattern so the experiment stays cheap while still
	// alternating the mix.
	burst := workload.BurstConfig{Period: time.Minute, BurstLen: 25 * time.Second, BurstReadRatio: 0.1}
	if sc.Duration < 5*time.Second {
		sc.Duration = 12 * time.Second
		burst = workload.BurstConfig{Period: 6 * time.Second, BurstLen: 2500 * time.Millisecond, BurstReadRatio: 0.1}
	} else if sc.Duration < 90*time.Second {
		sc.Duration = 90 * time.Second
	}
	var cells []cell
	for _, m := range throttleModes {
		c := kv(sc, storage.XPoint().Name, 4, 0.5)
		c.burst = burst
		c.throttle = m.mode
		// RocksDB's 20/36 thresholds assume 64 MB files against a
		// 100 GB dataset (0.08 dataset fractions); at the scaled 2 MB
		// files / tens-of-MB dataset they would exceed the whole
		// database. Scale them to the same multiples of the compaction
		// trigger the paper's setup effectively exercises under bursts.
		c.l0Slowdown, c.l0Stop = 8, 16
		cells = append(cells, c)
	}
	return cells
}

func renderFig18(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig18",
		Title:   "Throughput over time with periodic write bursts (1:1 base, 25s/min at 1:9; 3D XPoint)",
		Paper:   "original throttling dips to ~9–12 kop/s near-stop windows; two-stage throttling removes them",
		Columns: []string{"t(s)", "algorithm1 kop/s", "two-stage kop/s"},
	}
	var series [][]float64
	var mins []float64
	for _, o := range outs {
		rates := perSecond(o.res)
		// Ignore the first ramp-up second when hunting the min.
		lo := -1.0
		for i, v := range rates {
			if i >= 1 && (lo < 0 || v < lo) {
				lo = v
			}
		}
		series = append(series, rates)
		mins = append(mins, lo)
	}
	rep.Rows = timeSeriesRows(series)
	rep.Notes = fmt.Sprintf("min per-second rate: %s=%.1f kop/s, %s=%.1f kop/s",
		throttleModes[0].name, mins[0]/1000, throttleModes[1].name, mins[1]/1000)
	return rep
}

// readPercents are Fig 19's read ratios.
var readPercents = []int{5, 25, 50, 75, 90}

// Fig 19 compares default Level-0 management against case study B's
// dynamic management across read ratios on 3D XPoint.
func planFig19(sc Scale) []cell {
	var cells []cell
	for _, pct := range readPercents {
		for _, adaptive := range []bool{false, true} {
			c := kv(sc, storage.XPoint().Name, 4, float64(pct)/100)
			// The paper's configuration: throttle at 24 L0 files;
			// aggregate L0 volume constant (24 memtables).
			c.adaptiveL0 = adaptive
			c.l0Slowdown, c.l0Stop = 24, 36
			cells = append(cells, c)
		}
	}
	return cells
}

func renderFig19(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig19",
		Title:   "Throughput vs read ratio: default vs dynamic Level-0 management (3D XPoint, 4 workers)",
		Paper:   "dynamic L0 wins in most cases; +13% at 90% reads (77→87 kop/s); parity at 5% reads",
		Columns: []string{"read%", "default kop/s", "dynamic kop/s", "gain"},
	}
	for i, pct := range readPercents {
		def, dyn := outs[2*i].res.Throughput(), outs[2*i+1].res.Throughput()
		gain := "-"
		if def > 0 {
			gain = fmt.Sprintf("%+.1f%%", (dyn/def-1)*100)
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", pct), kops(def), kops(dyn), gain})
	}
	return rep
}

// walPlacements are Fig 20's rows.
var walPlacements = []struct {
	name    string
	disable bool
	device  string
}{{"data-device", false, ""}, {"nvm", false, storage.NVM().Name}, {"off", true, ""}}

// Fig 20 compares WAL placement at 50% inserts on 3D XPoint: WAL on
// the data device, WAL on NVM (case study C), and WAL disabled.
func planFig20(sc Scale) []cell {
	var cells []cell
	for _, w := range walPlacements {
		c := kv(sc, storage.XPoint().Name, 4, 0.5)
		c.disableWAL, c.walDevice = w.disable, w.device
		// Case study C presumes commits reach the log device (that is
		// what makes its placement matter); run the comparison in the
		// durable-WAL configuration.
		c.syncWAL = true
		cells = append(cells, c)
	}
	return cells
}

func renderFig20(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig20",
		Title:   "WRITE latency vs logging configuration (50% writes, 4 workers, 3D XPoint data device)",
		Paper:   "NVM logging cuts p90 write latency ~18.8% (16→13 µs); disabling WAL is still faster — logging overhead is not fully removable by placement",
		Columns: []string{"wal", "p50(us)", "p90(us)", "p99(us)", "kop/s"},
	}
	for i, w := range walPlacements {
		res := outs[i].res
		rep.Rows = append(rep.Rows, []string{
			w.name, us(res.WriteLat.Percentile(50)), us(res.WriteLat.Percentile(90)),
			us(res.WriteLat.Percentile(99)), kops(res.Throughput()),
		})
	}
	return rep
}
