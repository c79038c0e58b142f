// Burst writes (paper case study A): a workload with periodic write
// bursts drives the stock Algorithm 1 throttling into near-stop
// windows on a 3D XPoint device; two-stage throttling removes them.
// Its first stage never lets the delayed-write rate fall below half the
// 16 MiB/s starting rate.
//
// The whole experiment runs on the simulated device in virtual time,
// so it completes in seconds of wall clock regardless of the simulated
// duration.
package main

import (
	"fmt"
	"log"
	"time"

	"xpointdb"
	"xpointdb/internal/workload"
)

func run(twoStage bool) (*workload.Result, time.Duration) {
	sim := xpointdb.NewSimulation(xpointdb.XPoint())
	if twoStage {
		sim.Options.ThrottleMode = xpointdb.ThrottleTwoStage
	}

	var res *workload.Result
	sim.Kernel.Run(func() {
		db, err := xpointdb.Open(sim.Options)
		if err != nil {
			log.Fatalf("open: %v", err)
		}
		defer db.Close()
		if err := workload.Preload(db, 20000, 1024); err != nil {
			log.Fatalf("preload: %v", err)
		}
		res = workload.Run(sim.Kernel, db, workload.Config{
			Workers:   4,
			ReadRatio: 0.5,
			Duration:  2 * time.Minute,
			KeySpace:  20000,
			ValueSize: 1024,
			Seed:      1,
			// The paper's "flash of crowd": 25 s of write-heavy
			// traffic per minute.
			Burst: &workload.BurstConfig{
				Period:         time.Minute,
				BurstLen:       25 * time.Second,
				BurstReadRatio: 0.1,
			},
		})
	})
	return res, sim.Kernel.Elapsed()
}

func main() {
	for _, twoStage := range []bool{false, true} {
		name := "algorithm-1 "
		if twoStage {
			name = "two-stage  "
		}
		res, virtual := run(twoStage)

		// Find the worst per-second throughput after warm-up: the
		// near-stop metric from Figure 18.
		min := res.Series.MinRate(2*time.Second, virtual)
		fmt.Printf("%s  overall %6.1f kop/s   worst second %6.1f kop/s\n",
			name, res.Throughput()/1000, min/1000)
	}
	fmt.Println("\nThe two-stage controller should show a far higher worst-second rate:")
	fmt.Println("stage 1 caps the slowdown at a floor rate instead of collapsing to the")
	fmt.Println("token-bucket minimum the moment Level-0 crosses the slowdown threshold.")
}
