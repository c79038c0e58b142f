package engine

import (
	"testing"
	"time"

	"xpointdb/internal/costmodel"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
	"xpointdb/internal/workload"
)

// TestSimulatedMixedWorkload reproduces the figure-1 deadlock: 8
// concurrent workers, 1:1 mix, XPoint profile, virtual time.
func TestSimulatedMixedWorkload(t *testing.T) {
	if raceEnabled {
		t.Skip("minute-scale simulated workload is too slow under the race detector")
	}
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	dev := storage.New(k, storage.XPoint())
	fs := vfs.NewMem(dev)
	opts := DefaultOptions(fs)
	opts.Clock = k
	opts.CostModel = costmodel.Default()
	opts.MemtableSize = 2 << 20
	opts.TargetFileSize = 2 << 20
	opts.BaseLevelBytes = 8 << 20

	k.Run(func() {
		db, err := Open(opts)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := workload.Preload(db, 20000, 1024); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		res := workload.Run(k, db, workload.Config{
			Workers:   8,
			ReadRatio: 0.5,
			Duration:  5 * time.Second,
			KeySpace:  20000,
			ValueSize: 1024,
			Seed:      7,
		})
		t.Logf("result: %s", res)
		if err := db.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}
