// Package simenv builds the simulated environment every virtual-time
// caller runs in — the public xpointdb.Simulation, the per-figure
// experiments and dbbench — so they cannot drift apart: one epoch, one
// cost model, one way to wire a device to the engine options.
package simenv

import (
	"time"

	"xpointdb/internal/costmodel"
	"xpointdb/internal/engine"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// Env bundles the pieces of a virtual-time run: drive all activity
// from Kernel.Run, and read device counters from Device. Kernel is nil
// in the real-clock variant xpointdb.NewSimulationNull builds.
type Env struct {
	Kernel *sim.Kernel
	Device *storage.Device
	FS     *vfs.MemFS
	// WALDevice and WALFS are set when the WAL lives on its own
	// device (case study C).
	WALDevice *storage.Device
	WALFS     *vfs.MemFS
	// Options are the DB options, pre-wired to the clock, FS and
	// calibrated cost model; adjust and pass to Open inside Run.
	Options engine.Options
}

// New builds a simulated environment on the given device profile: a
// kernel starting at the 2020-01-01 epoch, the device, a MemFS charged
// to it, and default options on the kernel clock with the calibrated
// CPU cost model.
func New(profile storage.Profile) *Env {
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	dev := storage.New(k, profile)
	fs := vfs.NewMem(dev)
	opts := engine.DefaultOptions(fs)
	opts.Clock = k
	opts.CostModel = costmodel.Default()
	return &Env{Kernel: k, Device: dev, FS: fs, Options: opts}
}

// WithWALDevice places the WAL on a separate simulated device (case
// study C's NVM logging). Returns e for chaining.
func (e *Env) WithWALDevice(profile storage.Profile) *Env {
	e.WALDevice = storage.New(e.Kernel, profile)
	e.WALFS = vfs.NewMem(e.WALDevice)
	e.Options.WALFS = e.WALFS
	return e
}
