package experiments

import (
	"fmt"
	"reflect"
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
	ids := All()
	if len(ids) != 18 {
		t.Fatalf("expected 18 data figures, got %d", len(ids))
	}
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.id] {
			t.Fatalf("duplicate id %s", f.id)
		}
		seen[f.id] = true
		if !strings.HasPrefix(f.id, "fig") {
			t.Fatalf("bad id %s", f.id)
		}
		if f.plan == nil || f.render == nil {
			t.Fatalf("%s has no plan or no render", f.id)
		}
		if len(f.plan(Quick())) == 0 {
			t.Fatalf("%s plans no cells", f.id)
		}
	}
	for _, illustration := range []string{"fig2", "fig11"} {
		if seen[illustration] {
			t.Fatalf("%s is a schematic illustration, not an experiment", illustration)
		}
	}
}

// TestFigurePlan plans every figure at Quick scale without running
// anything, and pins how many cells the figures request, how many of
// them are distinct (what `figures -all` simulates), and which figures
// share which runs.
func TestFigurePlan(t *testing.T) {
	sc := Quick()
	plans := map[string][]cell{}
	distinct := map[cell]bool{}
	requested := 0
	for _, f := range figures {
		plans[f.id] = f.plan(sc)
		requested += len(plans[f.id])
		for _, c := range plans[f.id] {
			distinct[c] = true
		}
	}
	if requested != 127 || len(distinct) != 83 {
		t.Fatalf("figures request %d cells, %d distinct; want 127 and 83", requested, len(distinct))
	}
	in := func(c cell, id string) bool {
		for _, p := range plans[id] {
			if p == c {
				return true
			}
		}
		return false
	}
	same := func(a, b string) {
		t.Helper()
		if !reflect.DeepEqual(plans[a], plans[b]) {
			t.Errorf("%s and %s should plan the same cells", a, b)
		}
	}
	same("fig6", "fig5")
	same("fig7", "fig5")
	same("fig10", "fig9")
	same("fig12", "fig8")
	same("fig15", "fig14")
	same("fig16", "fig14")
	for i, c := range plans["fig17"] {
		if wantShared := i%2 == 0; in(c, "fig5") != wantShared { // the WAL-on rows
			t.Errorf("fig17 cell %d (%v): shared with fig5 = %v, want %v", i, c, !wantShared, wantShared)
		}
	}
	for _, c := range plans["fig14"] {
		if !in(c, "fig13") {
			t.Errorf("fig14 cell %v is not one of fig13's", c)
		}
	}
	for i, c := range plans["fig1"] {
		if wantShared := i%2 == 1; in(c, "fig13") != wantShared { // the KV cells, not the raw ones
			t.Errorf("fig1 cell %d (%v): shared with fig13 = %v, want %v", i, c, !wantShared, wantShared)
		}
	}
	for i, c := range plans["fig3"] {
		ins := insertRatios[i%len(insertRatios)]
		if in(c, "fig13") != (ins == 50) { // 1-0.5 is fig13's 0.5
			t.Errorf("fig3 cell %d (insert %d%%): shared with fig13 = %v", i, ins, ins != 50)
		}
		// Fig 3's 90% inserts read 1-0.9, not Fig 5's 0.10.
		if in(c, "fig5") {
			t.Errorf("fig3 cell %d (insert %d%%) shares fig5's run", i, ins)
		}
	}
}

// TestSharedCellRendersLikeAFreshRun: a Runner that already ran Fig 5
// renders Fig 6 from Fig 5's runs, byte-identical to a fresh Runner
// that simulates Fig 6's cells itself.
func TestSharedCellRendersLikeAFreshRun(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("figure runs in -short mode or under the race detector")
	}
	var simulated []string
	shared := &Runner{Scale: tinyScale(), Verbose: func(format string, args ...interface{}) {
		simulated = append(simulated, fmt.Sprintf(format, args...))
	}}
	if _, err := shared.Run("fig5"); err != nil {
		t.Fatal(err)
	}
	simulated = nil
	got, err := shared.Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range simulated {
		if !strings.HasPrefix(line, "shared ") {
			t.Errorf("fig6 after fig5 simulated a cell: %s", line)
		}
	}
	want, err := (&Runner{Scale: tinyScale()}).Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if got.Table() != want.Table() {
		t.Fatalf("fig6 from fig5's runs:\n%s\nfresh:\n%s", got.Table(), want.Table())
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
	outs, err := r.run(plan32(Quick())) // sata, pcie, xpoint
	if err != nil {
		t.Fatal(err)
	}
	sata, pcie, xp := outs[0].waitingMean, outs[1].waitingMean, outs[2].waitingMean
	t.Logf("mean waiting writers: sata=%.2f pcie=%.2f xpoint=%.2f", sata, pcie, xp)
	if xp <= sata || xp <= pcie {
		t.Fatalf("3D XPoint queued %.2f writers, not more than SATA (%.2f) and PCIe (%.2f)", xp, sata, pcie)
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
