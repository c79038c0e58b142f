package experiments

import (
	"fmt"

	"xpointdb/internal/storage"
	"xpointdb/internal/workload"
)

// The Level-0 experiments (Figures 8–12) sweep the memtable size —
// which is the L0 file size, since one flush produces one L0 file —
// and the L0 file-count operating point. Per the paper's setup the
// aggregate Level-0 volume is held constant while its division into
// files varies.

// l0Sizes are the scaled memtable/L0-file sizes standing in for the
// paper's 32–512 MB sweep (scaled 1:32 per DESIGN.md).
var l0Sizes = []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}

// l0SizeLabel renders a scaled size with its paper-scale equivalent.
func l0SizeLabel(sz int64) string {
	return fmt.Sprintf("%dMB(≈%dMB)", sz>>20, (sz>>20)*32)
}

// planL0Size is the size sweep behind Figures 8 and 12: the 1:1
// workload on 3D XPoint at each memtable/L0 file size, sampling the L0
// file count.
func planL0Size(sc Scale) []cell {
	var cells []cell
	for _, sz := range l0Sizes {
		c := kv(capped(sc), storage.XPoint().Name, 4, 0.5)
		c.memtable, c.targetFile, c.baseLevel = sz, sz, 4*sz
		c.sampleL0 = true
		cells = append(cells, c)
	}
	return cells
}

// Fig 8 establishes the control relationship: number of Level-0 files
// vs Level-0 file size (32→512 MB, scaled) at 1:1 read/write.
func renderFig8(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig8",
		Title:   "Number of Level-0 files vs L0 file size (1:1, 4 workers, 3D XPoint)",
		Paper:   "larger files ⇒ fewer L0 files: file size is the knob that controls the L0 file count",
		Columns: []string{"file size", "mean L0 files"},
	}
	for i, sz := range l0Sizes {
		rep.Rows = append(rep.Rows, []string{l0SizeLabel(sz), fmt.Sprintf("%.1f", outs[i].meanL0)})
	}
	return rep
}

// Fig 12 measures write tail latency vs SST/memtable size: a larger
// memtable means a deeper skiplist and costlier inserts.
func renderFig12(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig12",
		Title:   "WRITE p90 (µs) vs memtable/SST file size (1:1, 4 workers)",
		Paper:   "p90 write rises with file size (25→31 µs for 64→256 MB on SATA flash): insertion cost grows with skiplist depth",
		Columns: []string{"file size", "write p90(us)", "write p99(us)"},
	}
	for i, sz := range l0Sizes {
		h := outs[i].res.WriteLat
		rep.Rows = append(rep.Rows, []string{l0SizeLabel(sz), us(h.Percentile(90)), us(h.Percentile(99))})
	}
	return rep
}

// l0Variants are the columns of Figures 9 and 10: the three devices,
// plus a bloom-off 3D XPoint column matching the paper's db_bench
// configuration (bloom_bits defaults off there), where every covering
// Level-0 file pays a real search — the regime behind the paper's
// sharper XPoint sensitivity.
var l0Variants = []struct {
	name, device string
	bloom        bool
}{
	{"sata-flash", storage.SATAFlash().Name, true},
	{"pcie-flash", storage.PCIeFlash().Name, true},
	{"3dxpoint", storage.XPoint().Name, true},
	{"3dxpoint-nobloom", storage.XPoint().Name, false},
}

// l0Counts are the L0 file-count operating points of Figures 9 and 10.
var l0Counts = []int{2, 4, 6, 8}

// planL0Count pins the steady-state L0 file count near n by setting
// the compaction trigger to n while holding the aggregate L0 volume
// constant (file size = aggregate / n).
func planL0Count(sc Scale) []cell {
	const aggregate = 16 << 20
	var cells []cell
	for _, v := range l0Variants {
		for _, n := range l0Counts {
			size := int64(aggregate / n)
			c := kv(sc, v.device, 4, 0.5)
			c.memtable, c.targetFile, c.baseLevel = size, size, 4*size
			c.l0Compaction, c.l0Slowdown, c.l0Stop = n, n*4, n*8
			if !v.bloom {
				c.bloomBits = 0
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// l0CountFigure is Figures 9 and 10: one value per L0 file count and
// variant, drawn from the same sweep.
func l0CountFigure(id, title, paper string, value func(*workload.Result) string) figure {
	return figure{id, planL0Count, func(outs []*outcome) *Report {
		rep := &Report{ID: id, Title: title, Paper: paper, Columns: []string{"L0 files"}}
		for _, v := range l0Variants {
			rep.Columns = append(rep.Columns, v.name)
		}
		for i, n := range l0Counts {
			row := []string{fmt.Sprintf("%d", n)}
			for vi := range l0Variants {
				row = append(row, value(outs[vi*len(l0Counts)+i].res))
			}
			rep.Rows = append(rep.Rows, row)
		}
		rep.Notes = "3dxpoint-nobloom matches the paper's db_bench setup (bloom filters off): every covering L0 file pays a real search"
		return rep
	}}
}
