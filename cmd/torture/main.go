// Command torture runs the seeded robustness harness from the command
// line — the same iterations as `make tier3`, for reproducing a failing
// seed exactly or soaking many iterations of one nemesis × store cell
// (internal/torture documents the matrix and every contract):
//
//	go run ./cmd/torture -seed 1234                        # reproduce one crash seed
//	go run ./cmd/torture -nemesis enospc -shards 3 -seed 7 # one full-disk seed, 3 shards
//	go run ./cmd/torture -nemesis bitrot -iters 500 -v     # long soak
//
// Exit status is non-zero if any iteration violates its contract; the
// failing seed's repro command is printed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"xpointdb/internal/torture"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "base seed; iteration i runs with seed+i")
		iters   = flag.Int("iters", 1, "number of seeded iterations")
		ops     = flag.Int("ops", 0, "workload ops per iteration (0 = default)")
		keys    = flag.Int("keys", 0, "key-universe size (0 = default)")
		nemesis = flag.String("nemesis", "crash", "fault regime: crash, transient, bitrot or enospc")
		shards  = flag.Int("shards", 0, "run against a range-sharded store with this many shards (0 or 1 = bare engine)")
		verbose = flag.Bool("v", false, "log per-iteration progress")
	)
	flag.Parse()

	log.SetFlags(0)
	failed := 0
	for i := 0; i < *iters; i++ {
		cfg := torture.Config{Seed: *seed + int64(i), Ops: *ops, Keys: *keys, Nemesis: *nemesis, Shards: *shards}
		if *verbose {
			cfg.Logf = func(format string, args ...interface{}) {
				log.Printf("  seed %d: "+format, append([]interface{}{cfg.Seed}, args...)...)
			}
		}
		if err := torture.Run(cfg); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "FAIL: %v\nreproduce with: %s\n", err, cfg.Repro())
		} else if *verbose {
			log.Printf("seed %d: ok", cfg.Seed)
		}
	}
	fmt.Printf("torture: %d iterations, %d failures\n", *iters, failed)
	if failed > 0 {
		os.Exit(1)
	}
}
