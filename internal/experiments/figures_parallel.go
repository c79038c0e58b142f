package experiments

import "fmt"

// Figures 13–16: parallelism and read/write interference at 1:1. One
// sweep of client counts per device feeds Figure 13; its 32-client
// cells are Figures 14, 15 and 16. Fig 15 is the reversal: XPoint's
// fast reads accumulate more waiting writers, so its write tail is
// WORSE than SATA flash's.

// parallelism is Fig 13's sweep of client counts.
var parallelism = []int{1, 2, 4, 8, 16, 32}

func planFig13(sc Scale) []cell {
	var cells []cell
	for _, d := range deviceNames() {
		for _, w := range parallelism {
			cells = append(cells, kv(capped(sc), d, w, 0.5))
		}
	}
	return cells
}

// Fig 13: throughput vs parallelism.
func renderFig13(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig13",
		Title:   "Throughput (kop/s) vs number of client threads (1:1)",
		Paper:   "throughput rises with threads on all devices (3D XPoint: 35.4→79.5 kop/s from 1→32)",
		Columns: append([]string{"threads"}, deviceNames()...),
	}
	for i, w := range parallelism {
		row := []string{fmt.Sprintf("%d", w)}
		for di := range Devices() {
			row = append(row, kops(outs[di*len(parallelism)+i].res.Throughput()))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// plan32 is the 32-client cell of each device.
func plan32(sc Scale) []cell { return perDevice(32, 0.5)(capped(sc)) }

// Fig 16: mean number of waiting writer threads per device at 32
// threads.
func renderFig16(outs []*outcome) *Report {
	rep := &Report{
		ID:      "fig16",
		Title:   "Mean waiting writer threads at 32 threads (1:1)",
		Paper:   "more writers queue on 3D XPoint than on either flash SSD: fast reads → higher write arrival pressure → deeper write queue",
		Columns: []string{"device", "mean waiting", "max waiting"},
	}
	for i, d := range deviceNames() {
		rep.Rows = append(rep.Rows, []string{d, fmt.Sprintf("%.2f", outs[i].waitingMean), fmt.Sprintf("%d", outs[i].waitingMax)})
	}
	return rep
}
