// Observability tour: run a bursty write workload on a simulated 3D
// XPoint device with every instrumentation surface enabled — the
// structured event stream and per-operation PerfContext aggregation —
// then print the stats report and replay what the engine saw:
// flush/compaction activity, every write-stall episode with its cause,
// and the Algorithm 1 rate trajectory (×0.8 when compaction falls
// behind, ×1.25 as it catches up).
package main

import (
	"fmt"
	"log"
	"time"

	"xpointdb"
	"xpointdb/internal/workload"
)

func main() {
	sim := xpointdb.NewSimulation(xpointdb.XPoint())

	// A small memtable plus a write-heavy burst phase forces Level-0
	// to pile up, so the write controller has something to do.
	sim.Options.MemtableSize = 256 << 10
	sim.Options.TargetFileSize = 256 << 10
	sim.Options.BaseLevelBytes = 1 << 20
	sim.Options.ThrottleMode = xpointdb.ThrottleAlgorithm1

	// Instrumentation: an in-memory event buffer (use NewEventLog with
	// a file to persist the stream for xpdump -events) and per-op stage
	// timings.
	var evs xpointdb.EventBuffer
	sim.Options.EventListener = &evs
	sim.Options.CollectPerf = true

	var report string
	sim.Kernel.Run(func() {
		db, err := xpointdb.Open(sim.Options)
		if err != nil {
			log.Fatalf("open: %v", err)
		}
		defer db.Close()
		if err := workload.Preload(db, 10000, 1024); err != nil {
			log.Fatalf("preload: %v", err)
		}
		workload.Run(sim.Kernel, db, workload.Config{
			Workers:   4,
			ReadRatio: 0.5,
			Duration:  90 * time.Second,
			KeySpace:  10000,
			ValueSize: 1024,
			Seed:      1,
			Burst: &workload.BurstConfig{
				Period:         time.Minute,
				BurstLen:       25 * time.Second,
				BurstReadRatio: 0.05,
			},
		})
		report = db.StatsReport()
	})

	fmt.Println("=== final stats report ===")
	fmt.Print(report)

	counts := map[string]int{}
	var stalls, rates []xpointdb.Event
	for _, e := range evs.Events() {
		counts[string(e.Kind)]++
		switch {
		case e.Stall != nil:
			stalls = append(stalls, e)
		case e.Rate != nil:
			rates = append(rates, e)
		}
	}
	fmt.Printf("\n=== event stream: %d events ===\n", evs.Len())
	for kind, n := range counts {
		fmt.Printf("  %-17s %d\n", kind, n)
	}

	fmt.Printf("\n=== stall episodes (%d transitions) ===\n", len(stalls))
	for i, e := range stalls {
		if i >= 10 {
			fmt.Printf("  ... %d more\n", len(stalls)-10)
			break
		}
		fmt.Printf("  %s\n", e)
	}

	dec, inc := 0, 0
	for _, e := range rates {
		if e.Rate.Behind {
			dec++
		} else {
			inc++
		}
	}
	fmt.Printf("\n=== Algorithm 1 rate steps: %d down (×0.8), %d up (×1.25) ===\n", dec, inc)
	for i, e := range rates {
		if i >= 10 {
			fmt.Printf("  ... %d more\n", len(rates)-10)
			break
		}
		fmt.Printf("  %s\n", e)
	}
}
