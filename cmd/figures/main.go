// Command figures regenerates the paper's figures on the simulated
// storage substrate.
//
// Usage:
//
//	figures -fig 5            # one figure, quick scale
//	figures -all              # every figure
//	figures -fig 18 -full     # paper-scale durations
//	figures -fig 3 -v         # with per-cell progress
//
// Output is one text table per figure with the paper's observed shape
// quoted alongside for comparison. Figures that need the same
// simulated run share it: -v prints one line per cell simulated and one
// per cell served from an earlier figure's run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"xpointdb/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var (
		fig     = flag.String("fig", "", "figure to regenerate (e.g. 5 or fig5)")
		all     = flag.Bool("all", false, "regenerate every figure")
		full    = flag.Bool("full", false, "paper-scale durations (slower)")
		verbose = flag.Bool("v", false, "one stderr line per simulated cell and per shared one")
	)
	flag.Parse()

	runner := &experiments.Runner{Scale: experiments.Quick()}
	if *full {
		runner.Scale = experiments.Full()
	}
	if *verbose {
		runner.Verbose = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.All()
	case *fig != "":
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if id[0] >= '0' && id[0] <= '9' {
				id = "fig" + id
			}
			ids = append(ids, id)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: figures -fig N | -all [-full] [-v]")
		fmt.Fprintln(os.Stderr, "figures:", experiments.All())
		os.Exit(2)
	}

	for _, id := range ids {
		start := time.Now()
		rep, err := runner.Run(id)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println(rep.Table())
		fmt.Fprintf(os.Stderr, "[%s took %v wall-clock]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
