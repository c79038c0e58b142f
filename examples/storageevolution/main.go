// Storage evolution: the paper's core narrative in one run. The same
// mixed workload executes on all three device generations — SATA NAND
// flash, PCIe NAND flash, 3D XPoint — and the output shows both the
// expected part (reads ride the hardware) and the surprise the paper
// documents (the write path doesn't: throttling, queueing and
// compaction erase the device gap).
package main

import (
	"fmt"
	"log"
	"time"

	"xpointdb"
	"xpointdb/internal/workload"
)

func run(profile xpointdb.DeviceProfile, writeHeavy bool) (*workload.Result, string) {
	sim := xpointdb.NewSimulation(profile)
	var res *workload.Result
	var stats string
	sim.Kernel.Run(func() {
		db, err := xpointdb.Open(sim.Options)
		if err != nil {
			log.Fatalf("open: %v", err)
		}
		defer db.Close()
		if err := workload.Preload(db, 24000, 1024); err != nil {
			log.Fatalf("preload: %v", err)
		}
		readRatio := 0.95
		if writeHeavy {
			readRatio = 0.10
		}
		res = workload.Run(sim.Kernel, db, workload.Config{
			Workers:   4,
			ReadRatio: readRatio,
			Duration:  8 * time.Second,
			KeySpace:  24000,
			ValueSize: 1024,
			Seed:      2020,
		})
		stats = db.StatsReport()
	})
	return res, stats
}

func main() {
	profiles := []xpointdb.DeviceProfile{
		xpointdb.SATAFlash(), xpointdb.PCIeFlash(), xpointdb.XPoint(),
	}

	fmt.Println("read-heavy (95% reads): hardware evolution pays off")
	var first float64
	for _, p := range profiles {
		res, _ := run(p, false)
		if first == 0 {
			first = res.Throughput()
		}
		fmt.Printf("  %-11s %8.1f kop/s (%.1f× vs SATA)   read p90 %v\n",
			p.Name, res.Throughput()/1000, res.Throughput()/first,
			res.ReadLat.Percentile(90).Round(time.Microsecond))
	}

	fmt.Println("\nwrite-heavy (90% writes): software bottlenecks take over")
	first = 0
	for _, p := range profiles {
		res, stats := run(p, true)
		if first == 0 {
			first = res.Throughput()
		}
		fmt.Printf("  %-11s %8.1f kop/s (%.1f× vs SATA)   write p99 %v\n",
			p.Name, res.Throughput()/1000, res.Throughput()/first,
			res.WriteLat.Percentile(99).Round(time.Microsecond))
		if p.Name == "3dxpoint" {
			fmt.Println("\n  3D XPoint engine report (note the stall time):")
			fmt.Println(indent(stats, "  | "))
		}
	}
	fmt.Println("The read-heavy speedup tracks the raw device gap; the write-heavy")
	fmt.Println("one collapses — the paper's Findings #1–#4 in one table.")
}

func indent(s, prefix string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += prefix + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
