package torture

import (
	"flag"
	"fmt"
	"strings"
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

// TestTortureReplays runs one seed of every cell twice and requires
// byte-identical verbose transcripts: every nemesis logs its counters,
// crash its mode and cuts, so a run whose engine state depended on the
// host's scheduling or clock would show up as a diff.
func TestTortureReplays(t *testing.T) {
	for _, nemesis := range []string{"crash", "transient", "bitrot", "enospc"} {
		for _, shards := range []int{1, 2} {
			cfg := Config{Seed: 4, Nemesis: nemesis, Shards: shards}
			transcript := func() string {
				var b strings.Builder
				c := cfg
				c.Logf = func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }
				fmt.Fprintf(&b, "result: %v\n", Run(c))
				return b.String()
			}
			first, second := transcript(), transcript()
			if !strings.HasSuffix(first, "result: <nil>\n") {
				t.Errorf("%s failed:\n%s", cfg.Repro(), first)
			}
			if first != second {
				t.Errorf("%s: two runs printed different transcripts\n--- first:\n%s--- second:\n%s", cfg.Repro(), first, second)
			}
		}
	}
}
