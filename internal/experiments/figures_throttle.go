package experiments

import (
	"fmt"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
	"xpointdb/internal/workload"
)

// Fig1 reproduces the motivating example: raw-device throughput vs
// RocksDB throughput on the SATA flash SSD and the 3D XPoint SSD
// (4 KB random, 8 threads, read:write 1:1). The paper measured a raw
// speedup of 15.7× collapsing to 1.77× at the KV level.
func (r *Runner) Fig1() *Report {
	rep := &Report{
		ID:      "fig1",
		Title:   "Raw device vs KV-store throughput, SATA flash vs 3D XPoint (8 threads, 1:1)",
		Paper:   "raw 26→408 kop/s (15.7×); RocksDB 13→23 kop/s (+76.9%) — the KV layer squanders most of the hardware gain",
		Columns: []string{"device", "raw kop/s", "kv kop/s"},
	}
	profiles := []storage.Profile{storage.SATAFlash(), storage.XPoint()}
	var rawTP, kvTP []float64
	for _, p := range profiles {
		// Raw baseline: drive the bare device model.
		env := NewEnv(p, r.Scale, nil)
		var raw *workload.Result
		env.Kernel.Run(func() {
			raw = workload.RunRaw(env.Kernel, env.Device, 8, 0.5, r.Scale.Duration/2, 1)
		})

		// KV: same mix through the engine.
		env2 := NewEnv(p, r.Scale, nil)
		res, _, err := env2.RunKV(func(db *engine.DB) *workload.Result {
			return env2.Mixed(db, 8, 0.5, nil)
		})
		if err != nil {
			rep.Notes = "error: " + err.Error()
			return rep
		}
		rawTP = append(rawTP, raw.Throughput())
		kvTP = append(kvTP, res.Throughput())
		rep.Rows = append(rep.Rows, []string{p.Name, kops(raw.Throughput()), kops(res.Throughput())})
		r.logf("fig1 %s: raw=%s kv=%s", p.Name, raw, res)
	}
	if len(rawTP) == 2 && rawTP[0] > 0 && kvTP[0] > 0 {
		rep.Notes = fmt.Sprintf("raw speedup %.1f×, kv speedup %.2f× — measured here", rawTP[1]/rawTP[0], kvTP[1]/kvTP[0])
	}
	return rep
}

// Fig3 measures throughput vs insertion ratio (0→100%) on all three
// devices with 4 workers. The paper found throughput *rising* with
// insertion ratio on both flash SSDs but *falling* on 3D XPoint, the
// two converging at high insertion ratios because throttling erases
// the hardware difference.
func (r *Runner) Fig3() *Report {
	rep := &Report{
		ID:      "fig3",
		Title:   "Throughput vs insertion ratio (4 workers)",
		Paper:   "flash SSDs rise with insertion ratio (fewer expensive reads); 3D XPoint falls (115→45 kop/s) and converges toward PCIe flash as throttling dominates",
		Columns: []string{"insert%"},
	}
	ratios := []int{0, 10, 25, 50, 75, 90, 100}
	cells := make(map[string][]string)
	for _, p := range Devices() {
		rep.Columns = append(rep.Columns, p.Name+" kop/s")
		for _, ins := range ratios {
			env := NewEnv(p, r.Scale, nil)
			readRatio := 1 - float64(ins)/100
			res, _, err := env.RunKV(func(db *engine.DB) *workload.Result {
				return env.Mixed(db, 4, readRatio, nil)
			})
			if err != nil {
				cells[p.Name] = append(cells[p.Name], "err")
				continue
			}
			cells[p.Name] = append(cells[p.Name], kops(res.Throughput()))
			r.logf("fig3 %s ins=%d%%: %s", p.Name, ins, res)
		}
	}
	for i, ins := range ratios {
		row := []string{fmt.Sprintf("%d", ins)}
		for _, p := range Devices() {
			row = append(row, cells[p.Name][i])
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// timeline runs one device at one write ratio and returns the
// per-second throughput series (Figures 4 and 5).
func (r *Runner) timeline(p storage.Profile, readRatio float64) ([]float64, error) {
	env := NewEnv(p, r.Scale, nil)
	res, _, err := env.RunKV(func(db *engine.DB) *workload.Result {
		return env.Mixed(db, 4, readRatio, nil)
	})
	if err != nil {
		return nil, err
	}
	pts := res.Series.Points()
	if len(pts) > 0 {
		// Drop the final partial bucket (the run ends mid-second).
		pts = pts[:len(pts)-1]
	}
	rates := make([]float64, len(pts))
	for i, pt := range pts {
		rates[i] = pt.Rate
	}
	return rates, nil
}

func (r *Runner) timelineReport(id, title, paper string, readRatio float64) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Paper:   paper,
		Columns: []string{"t(s)"},
	}
	series := make(map[string][]float64)
	maxLen := 0
	for _, p := range Devices() {
		rates, err := r.timeline(p, readRatio)
		if err != nil {
			rep.Notes = "error: " + err.Error()
			return rep
		}
		series[p.Name] = rates
		if len(rates) > maxLen {
			maxLen = len(rates)
		}
		rep.Columns = append(rep.Columns, p.Name+" kop/s")
	}
	for t := 0; t < maxLen; t++ {
		row := []string{fmt.Sprintf("%d", t)}
		for _, p := range Devices() {
			if t < len(series[p.Name]) {
				row = append(row, kops(series[p.Name][t]))
			} else {
				row = append(row, "-")
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	// Summarize variation on the XPoint device.
	x := series["3dxpoint"]
	if len(x) > 2 {
		min, max := x[0], x[0]
		for _, v := range x {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		rep.Notes = fmt.Sprintf("3dxpoint per-second rate min=%.1f kop/s max=%.1f kop/s", min/1000, max/1000)
	}
	return rep
}

// Fig4 is the per-second throughput timeline at 5% writes: smooth and
// device-ordered (XPoint highest).
func (r *Runner) Fig4() *Report {
	return r.timelineReport("fig4",
		"Throughput over time, 5% writes (4 workers)",
		"stable rates; 3D XPoint well above both flash SSDs",
		0.95)
}

// Fig5 is the same at 90% writes: the throttling mechanism periodically
// drags 3D XPoint from ~169 kop/s to a few kop/s.
func (r *Runner) Fig5() *Report {
	return r.timelineReport("fig5",
		"Throughput over time, 90% writes (4 workers)",
		"periodic throttling pulls 3D XPoint from ~169 kop/s to as low as ~3 kop/s; devices converge",
		0.10)
}

// latencyAtHighInsert runs a 90%-write workload per device and reports
// the requested percentile histograms (Figures 6 and 7).
func (r *Runner) latencyAtHighInsert(id, title, paper string, read bool) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Paper:   paper,
		Columns: []string{"device", "p50(us)", "p90(us)", "p99(us)", "mean(us)"},
	}
	for _, p := range Devices() {
		env := NewEnv(p, r.Scale, nil)
		res, _, err := env.RunKV(func(db *engine.DB) *workload.Result {
			return env.Mixed(db, 4, 0.10, nil)
		})
		if err != nil {
			rep.Notes = "error: " + err.Error()
			return rep
		}
		h := res.WriteLat
		if read {
			h = res.ReadLat
		}
		rep.Rows = append(rep.Rows, []string{
			p.Name, us(h.Percentile(50)), us(h.Percentile(90)), us(h.Percentile(99)), us(h.Mean()),
		})
		r.logf("%s %s: %s", id, p.Name, res)
	}
	return rep
}

// Fig6: read latency at 90% writes.
func (r *Runner) Fig6() *Report {
	return r.latencyAtHighInsert("fig6",
		"READ latency at 90% writes (4 workers)",
		"p90 read: 839 µs SATA flash vs 251 µs 3D XPoint — reads stay much faster on XPoint",
		true)
}

// Fig7: write latency at 90% writes.
func (r *Runner) Fig7() *Report {
	return r.latencyAtHighInsert("fig7",
		"WRITE latency at 90% writes (4 workers)",
		"p90 write: 28 µs SATA flash vs 26 µs 3D XPoint — buffered writes mask the device difference",
		false)
}

// Fig17 measures write tail latency with the WAL enabled vs disabled
// at 90% inserts.
func (r *Runner) Fig17() *Report {
	rep := &Report{
		ID:      "fig17",
		Title:   "WRITE latency vs WAL (90% writes, 4 workers)",
		Paper:   "disabling the WAL cuts p90 write latency from ~54 µs to ~22 µs on 3D XPoint; logging hurts on every device",
		Columns: []string{"device", "wal", "p50(us)", "p90(us)", "p99(us)"},
	}
	for _, p := range Devices() {
		for _, disable := range []bool{false, true} {
			env := NewEnv(p, r.Scale, func(o *engine.Options) { o.DisableWAL = disable })
			res, _, err := env.RunKV(func(db *engine.DB) *workload.Result {
				return env.Mixed(db, 4, 0.10, nil)
			})
			if err != nil {
				rep.Notes = "error: " + err.Error()
				return rep
			}
			mode := "on"
			if disable {
				mode = "off"
			}
			rep.Rows = append(rep.Rows, []string{
				p.Name, mode,
				us(res.WriteLat.Percentile(50)), us(res.WriteLat.Percentile(90)), us(res.WriteLat.Percentile(99)),
			})
			r.logf("fig17 %s wal=%s: %s", p.Name, mode, res)
		}
	}
	return rep
}

// stallFloorEstimate documents Analysis #1's model: the throttled
// application throughput λa = t/(refill+t)·λs.
func stallFloorEstimate(lambdaS float64, t time.Duration) float64 {
	refill := 1024 * time.Microsecond
	return float64(t) / float64(refill+t) * lambdaS
}
