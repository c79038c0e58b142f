package experiments

import (
	"fmt"

	"xpointdb/internal/storage"
	"xpointdb/internal/workload"
)

// deviceNames names Devices() in presentation order.
func deviceNames() []string {
	var names []string
	for _, p := range Devices() {
		names = append(names, p.Name)
	}
	return names
}

// perDevice plans one standard cell per device.
func perDevice(workers int, readRatio float64) func(Scale) []cell {
	return func(sc Scale) []cell {
		var cells []cell
		for _, d := range deviceNames() {
			cells = append(cells, kv(sc, d, workers, readRatio))
		}
		return cells
	}
}

// fig1Devices are the two devices of the motivating example.
var fig1Devices = []string{storage.SATAFlash().Name, storage.XPoint().Name}

// Fig 1 reproduces the motivating example: raw-device throughput vs
// RocksDB throughput on the SATA flash SSD and the 3D XPoint SSD
// (4 KB random, 8 threads, read:write 1:1). The paper measured a raw
// speedup of 15.7× collapsing to 1.77× at the KV level. The raw
// baseline drives the bare device model for half the run length.
func planFig1(sc Scale) []cell {
	var cells []cell
	for _, d := range fig1Devices {
		raw := kv(sc, d, 8, 0.5)
		raw.raw, raw.duration = true, sc.Duration/2
		cells = append(cells, raw, kv(sc, d, 8, 0.5))
	}
	return cells
}

func renderFig1(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig1",
		Title:   "Raw device vs KV-store throughput, SATA flash vs 3D XPoint (8 threads, 1:1)",
		Paper:   "raw 26→408 kop/s (15.7×); RocksDB 13→23 kop/s (+76.9%) — the KV layer squanders most of the hardware gain",
		Columns: []string{"device", "raw kop/s", "kv kop/s"},
	}
	var rawTP, kvTP []float64
	for i, d := range fig1Devices {
		raw, res := outs[2*i].res, outs[2*i+1].res
		rawTP = append(rawTP, raw.Throughput())
		kvTP = append(kvTP, res.Throughput())
		rep.Rows = append(rep.Rows, []string{d, kops(raw.Throughput()), kops(res.Throughput())})
	}
	if rawTP[0] > 0 && kvTP[0] > 0 {
		rep.Notes = fmt.Sprintf("raw speedup %.1f×, kv speedup %.2f× — measured here", rawTP[1]/rawTP[0], kvTP[1]/kvTP[0])
	}
	return rep
}

// insertRatios is Fig 3's sweep of the write percentage.
var insertRatios = []int{0, 10, 25, 50, 75, 90, 100}

// Fig 3 measures throughput vs insertion ratio (0→100%) on all three
// devices with 4 workers. The paper found throughput *rising* with
// insertion ratio on both flash SSDs but *falling* on 3D XPoint, the
// two converging at high insertion ratios because throttling erases
// the hardware difference.
func planFig3(sc Scale) []cell {
	var cells []cell
	for _, d := range deviceNames() {
		for _, ins := range insertRatios {
			cells = append(cells, kv(sc, d, 4, 1-float64(ins)/100))
		}
	}
	return cells
}

func renderFig3(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig3",
		Title:   "Throughput vs insertion ratio (4 workers)",
		Paper:   "flash SSDs rise with insertion ratio (fewer expensive reads); 3D XPoint falls (115→45 kop/s) and converges toward PCIe flash as throttling dominates",
		Columns: []string{"insert%"},
	}
	devices := deviceNames()
	for _, d := range devices {
		rep.Columns = append(rep.Columns, d+" kop/s")
	}
	for i, ins := range insertRatios {
		row := []string{fmt.Sprintf("%d", ins)}
		for di := range devices {
			row = append(row, kops(outs[di*len(insertRatios)+i].res.Throughput()))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// perSecond is a run's per-second throughput series without the final
// partial bucket (the run ends mid-second).
func perSecond(res *workload.Result) []float64 {
	pts := res.Series.Points()
	if len(pts) > 0 {
		pts = pts[:len(pts)-1]
	}
	rates := make([]float64, len(pts))
	for i, pt := range pts {
		rates[i] = pt.Rate
	}
	return rates
}

// timeSeriesRows renders one row per second with one kop/s column per
// series, "-" past a series' end.
func timeSeriesRows(series [][]float64) [][]string {
	n := 0
	for _, s := range series {
		n = max(n, len(s))
	}
	var rows [][]string
	for t := 0; t < n; t++ {
		row := []string{fmt.Sprintf("%d", t)}
		for _, s := range series {
			if t < len(s) {
				row = append(row, kops(s[t]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// timeline is Figures 4 and 5: the per-second throughput of each
// device at 4 workers and one read ratio.
func timeline(id, title, paper string, readRatio float64) figure {
	return figure{id, perDevice(4, readRatio), func(outs []*outcome) *Report {
		rep := &Report{ID: id, Title: title, Paper: paper, Columns: []string{"t(s)"}}
		var series [][]float64
		for i, d := range deviceNames() {
			series = append(series, perSecond(outs[i].res))
			rep.Columns = append(rep.Columns, d+" kop/s")
		}
		rep.Rows = timeSeriesRows(series)
		// Summarize variation on the XPoint device.
		if x := series[2]; len(x) > 2 {
			lo, hi := x[0], x[0]
			for _, v := range x {
				lo, hi = min(lo, v), max(hi, v)
			}
			rep.Notes = fmt.Sprintf("3dxpoint per-second rate min=%.1f kop/s max=%.1f kop/s", lo/1000, hi/1000)
		}
		return rep
	}}
}

// latencyFigure is Figures 6–7 (Fig 5's runs, with the mean) and
// 14–15 (the 32-client runs): each device's read or write latency
// percentiles.
func latencyFigure(id, title, paper string, plan func(Scale) []cell, read, mean bool) figure {
	return figure{id, plan, func(outs []*outcome) *Report {
		rep := &Report{ID: id, Title: title, Paper: paper, Columns: []string{"device", "p50(us)", "p90(us)", "p99(us)"}}
		if mean {
			rep.Columns = append(rep.Columns, "mean(us)")
		}
		for i, d := range deviceNames() {
			h := outs[i].res.WriteLat
			if read {
				h = outs[i].res.ReadLat
			}
			row := []string{d, us(h.Percentile(50)), us(h.Percentile(90)), us(h.Percentile(99))}
			if mean {
				row = append(row, us(h.Mean()))
			}
			rep.Rows = append(rep.Rows, row)
		}
		return rep
	}}
}

// Fig 17 measures write tail latency with the WAL enabled vs disabled
// at 90% inserts; the WAL-on rows are Fig 5's runs.
func planFig17(sc Scale) []cell {
	var cells []cell
	for _, d := range deviceNames() {
		for _, disable := range []bool{false, true} {
			c := kv(sc, d, 4, 0.10)
			c.disableWAL = disable
			cells = append(cells, c)
		}
	}
	return cells
}

func renderFig17(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig17",
		Title:   "WRITE latency vs WAL (90% writes, 4 workers)",
		Paper:   "disabling the WAL cuts p90 write latency from ~54 µs to ~22 µs on 3D XPoint; logging hurts on every device",
		Columns: []string{"device", "wal", "p50(us)", "p90(us)", "p99(us)"},
	}
	for i, d := range deviceNames() {
		for j, mode := range []string{"on", "off"} {
			h := outs[2*i+j].res.WriteLat
			rep.Rows = append(rep.Rows, []string{d, mode, us(h.Percentile(50)), us(h.Percentile(90)), us(h.Percentile(99))})
		}
	}
	return rep
}
