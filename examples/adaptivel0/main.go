// Adaptive Level-0 management (paper case study B): the engine watches
// the live read/write mix and retunes the memtable (and therefore the
// Level-0 file) size — many small files under write-heavy load, few
// large files under read-heavy load. The aggregate Level-0 volume is
// held at 24 memtables: the budget is the configured MemtableSize when
// writes dominate and four times it when reads do.
package main

import (
	"fmt"
	"log"
	"time"

	"xpointdb"
	"xpointdb/internal/workload"
)

func run(adaptive bool, readRatio float64) float64 {
	sim := xpointdb.NewSimulation(xpointdb.XPoint())
	sim.Options.AdaptiveL0 = adaptive
	sim.Options.L0SlowdownTrigger = 24
	sim.Options.L0StopTrigger = 36

	var tp float64
	sim.Kernel.Run(func() {
		db, err := xpointdb.Open(sim.Options)
		if err != nil {
			log.Fatalf("open: %v", err)
		}
		defer db.Close()
		if err := workload.Preload(db, 20000, 1024); err != nil {
			log.Fatalf("preload: %v", err)
		}
		res := workload.Run(sim.Kernel, db, workload.Config{
			Workers:   4,
			ReadRatio: readRatio,
			Duration:  15 * time.Second,
			KeySpace:  20000,
			ValueSize: 1024,
			Seed:      1,
		})
		tp = res.Throughput()
		fmt.Printf("    memtable budget converged to %d KiB\n", db.MemtableBudget()>>10)
	})
	return tp
}

func main() {
	for _, readPct := range []int{10, 50, 90} {
		fmt.Printf("read ratio %d%%:\n", readPct)
		base := run(false, float64(readPct)/100)
		fmt.Printf("  default : %6.1f kop/s\n", base/1000)
		adpt := run(true, float64(readPct)/100)
		fmt.Printf("  adaptive: %6.1f kop/s (%+.1f%%)\n\n", adpt/1000, (adpt/base-1)*100)
	}
	fmt.Println("Read-heavy mixes benefit from fewer, larger Level-0 files (fewer")
	fmt.Println("tables probed per Get); write-heavy mixes prefer small memtables")
	fmt.Println("(cheaper skiplist inserts), which is where the curves converge.")
}
