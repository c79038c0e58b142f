package torture

import (
	"flag"
	"testing"
)

var (
	tortureIters  = flag.Int("torture.iters", 12, "iterations per nemesis/store cell (make tier3 runs 50)")
	tortureSeed   = flag.Int64("torture.seed", 1, "base seed; iteration i runs with seed+i")
	tortureOps    = flag.Int("torture.ops", 0, "ops per iteration (0 = harness default)")
	tortureShards = flag.Int("torture.shards", 0, "shard count of the sharded cells (0 = rotate through 2, 3, 4)")
)

// TestTorture runs the nemesis × store matrix documented in the package
// comment, one subtest per cell. A failure prints the command line that
// reruns exactly the failing seed.
func TestTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture harness skipped in -short mode")
	}
	for _, nemesis := range []string{"crash", "transient", "bitrot", "enospc"} {
		for _, st := range []string{"engine", "sharded"} {
			t.Run(nemesis+"/"+st, func(t *testing.T) {
				for i := 0; i < *tortureIters; i++ {
					cfg := Config{Seed: *tortureSeed + int64(i), Ops: *tortureOps, Nemesis: nemesis}
					if st == "sharded" {
						if cfg.Shards = *tortureShards; cfg.Shards == 0 {
							cfg.Shards = 2 + i%3
						}
					}
					if testing.Verbose() {
						cfg.Logf = t.Logf
					}
					if err := Run(cfg); err != nil {
						t.Fatalf("%v\n\nreproduce with: %s", err, cfg.Repro())
					}
				}
			})
		}
	}
}
