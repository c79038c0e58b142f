package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/sim"
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
// them changes the simulated system the figures are drawn from. The
// four runs are independent kernels, so they run concurrently
// (sim.Each) and their lines are joined in a fixed order.
// Regenerate with -update only when the modelled system is meant to
// change, and say why.
func TestSimGolden(t *testing.T) {
	type cell struct {
		clients int
		p       storage.Profile
	}
	var cells []cell
	for _, clients := range []int{1, 8} {
		for _, p := range []storage.Profile{storage.XPoint(), storage.SATAFlash()} {
			cells = append(cells, cell{clients, p})
		}
	}
	lines := make([]string, len(cells))
	sim.Each(len(cells), func(i int) {
		clients, p := cells[i].clients, cells[i].p
		sc := Scale{Duration: 2 * time.Second, KeySpace: 4000, MemtableSize: 512 << 10}
		env := NewEnv(p, sc, nil)
		res, m, err := env.RunKV(func(db *engine.DB) *workload.Result {
			return env.Mixed(db, clients, 0.5, nil)
		})
		if err != nil {
			t.Errorf("%d clients, %s: %v", clients, p.Name, err)
			return
		}
		if res.Errors != 0 {
			t.Errorf("%d clients, %s: %d workload errors", clients, p.Name, res.Errors)
			return
		}
		prefix := ""
		if clients != 1 {
			prefix = fmt.Sprintf("clients%d.", clients)
		}
		var b strings.Builder
		line := func(name string, v any) { fmt.Fprintf(&b, "%s%s.%s %v\n", prefix, p.Name, name, v) }
		line("flushes", m.FlushLatency.Count())
		line("compactions", m.CompactionLatency.Count())
		line("wal_syncs", m.WALSyncLatency.Count())
		line("stall", time.Duration(m.StallDelayTotal.Load()+m.StallStopTotal.Load()))
		line("put_p50", res.WriteLat.Percentile(50))
		line("put_p99", res.WriteLat.Percentile(99))
		line("get_p50", res.ReadLat.Percentile(50))
		line("get_p99", res.ReadLat.Percentile(99))
		lines[i] = b.String()
	})
	if t.Failed() {
		return
	}
	got := "# one client, 50% reads, 4000 keys preloaded, 2 s virtual; see TestSimGolden\n" +
		lines[0] + lines[1] + "# 8 clients, otherwise as above\n" + lines[2] + lines[3]

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
