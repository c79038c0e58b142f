package experiments

import (
	"strings"
	"testing"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
	"xpointdb/internal/workload"
)

// tinyScale keeps experiment tests fast: the point is plumbing, not
// calibration.
func tinyScale() Scale {
	return Scale{Duration: 1 * time.Second, KeySpace: 4000, MemtableSize: 512 << 10}
}

func TestEnvRunKV(t *testing.T) {
	env := NewEnv(storage.XPoint(), tinyScale(), nil)
	res, m, err := env.RunKV(func(db *engine.DB) *workload.Result {
		return env.Mixed(db, 2, 0.5, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops() == 0 {
		t.Fatal("no ops")
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	if m.Flushes.Load() == 0 {
		t.Fatal("preload produced no flushes")
	}
	if env.Kernel.Elapsed() < tinyScale().Duration {
		t.Fatal("virtual time shorter than the workload")
	}
}

func TestRunnerUnknownFigure(t *testing.T) {
	r := &Runner{Scale: tinyScale()}
	if _, err := r.Run("fig2"); err == nil {
		t.Fatal("fig2 is an illustration; must be rejected")
	}
	if _, err := r.Run("nonsense"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllIDsResolve(t *testing.T) {
	// Compile-time-ish check that every listed ID has a handler; use
	// reflection-free dispatch by checking the error path only for a
	// fake id, and trusting Run's switch for the rest. Running all
	// figures here would be far too slow; cmd/figures does that.
	ids := All()
	if len(ids) != 18 {
		t.Fatalf("expected 18 data figures, got %d", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, "fig") {
			t.Fatalf("bad id %s", id)
		}
	}
	for _, illustration := range []string{"fig2", "fig11"} {
		if seen[illustration] {
			t.Fatalf("%s is a schematic illustration, not an experiment", illustration)
		}
	}
}

func TestFig20Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	r := &Runner{Scale: tinyScale()}
	rep, err := r.Run("fig20")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("fig20 rows = %d, want 3 (data-device, nvm, off)", len(rep.Rows))
	}
	if rep.Table() == "" || !strings.Contains(rep.Table(), "fig20") {
		t.Fatal("table rendering broken")
	}
}

func TestFig17Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	r := &Runner{Scale: tinyScale()}
	rep, err := r.Run("fig17")
	if err != nil {
		t.Fatal(err)
	}
	// 3 devices × wal on/off.
	if len(rep.Rows) != 6 {
		t.Fatalf("fig17 rows = %d", len(rep.Rows))
	}
}

// TestFig16FasterDeviceQueuesMoreWriters asserts Finding #3 at Figure
// 16's own configuration (Quick scale, 32 clients, 1:1): the fast
// device's quicker reads raise the write arrival rate, so more writers
// queue on 3D XPoint than on either flash SSD.
func TestFig16FasterDeviceQueuesMoreWriters(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("minute-scale figure run in -short mode or under the race detector")
	}
	r := &Runner{Scale: Quick()}
	cells, err := r.parallel32()
	if err != nil {
		t.Fatal(err)
	}
	sata, pcie, xp := cells[storage.SATAFlash().Name], cells[storage.PCIeFlash().Name], cells[storage.XPoint().Name]
	t.Logf("mean waiting writers: sata=%.2f pcie=%.2f xpoint=%.2f", sata.waitingWriters, pcie.waitingWriters, xp.waitingWriters)
	if xp.waitingWriters <= sata.waitingWriters || xp.waitingWriters <= pcie.waitingWriters {
		t.Fatalf("3D XPoint queued %.2f writers, not more than SATA (%.2f) and PCIe (%.2f)",
			xp.waitingWriters, sata.waitingWriters, pcie.waitingWriters)
	}
}

func TestReportTableAlignment(t *testing.T) {
	rep := &Report{
		ID:      "figX",
		Title:   "test",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
	}
	out := rep.Table()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// Header and data rows must align on the same column offset.
	hdr := lines[1]
	if !strings.HasPrefix(hdr, "a      ") {
		t.Fatalf("header misaligned: %q", hdr)
	}
}
