package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
	"xpointdb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_golden.txt instead of diffing against it")

const simGoldenPath = "testdata/sim_golden.txt"

// TestSimGolden pins what the modelled system does in one short run
// per device, with one client and with eight: the background work it
// schedules (flushes, compactions, WAL syncs), the foreground time it
// stalls, and the virtual-time Put and Get latencies the cost and
// device models produce. Every pinned value is exact and
// host-independent — the kernel runs one process at a time, so eight
// clients replay as exactly as one — and a change that moves one of
// them changes the simulated system the figures are drawn from.
// Regenerate with -update only when the modelled system is meant to
// change, and say why.
func TestSimGolden(t *testing.T) {
	var b strings.Builder
	for _, clients := range []int{1, 8} {
		prefix := ""
		if clients == 1 {
			b.WriteString("# one client, 50% reads, 4000 keys preloaded, 2 s virtual; see TestSimGolden\n")
		} else {
			prefix = fmt.Sprintf("clients%d.", clients)
			fmt.Fprintf(&b, "# %d clients, otherwise as above\n", clients)
		}
		for _, p := range []storage.Profile{storage.XPoint(), storage.SATAFlash()} {
			sc := Scale{Duration: 2 * time.Second, KeySpace: 4000, MemtableSize: 512 << 10}
			env := NewEnv(p, sc, nil)
			res, m, err := env.RunKV(func(db *engine.DB) *workload.Result {
				return env.Mixed(db, clients, 0.5, nil)
			})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if res.Errors != 0 {
				t.Fatalf("%s: %d workload errors", p.Name, res.Errors)
			}
			line := func(name string, v any) { fmt.Fprintf(&b, "%s%s.%s %v\n", prefix, p.Name, name, v) }
			line("flushes", m.Flushes.Load())
			line("compactions", m.Compactions.Load())
			line("wal_syncs", m.WALSyncs.Load())
			line("stall", time.Duration(m.StallDelayTotal.Load()+m.StallStopTotal.Load()))
			line("put_p50", res.WriteLat.Percentile(50))
			line("put_p99", res.WriteLat.Percentile(99))
			line("get_p50", res.ReadLat.Percentile(50))
			line("get_p99", res.ReadLat.Percentile(99))
		}
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(simGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(simGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("the modelled system moved.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
