package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
)

// Sizes. Every host workload is fixed work per repetition, repeated
// until the run's time budget is spent, so two commits do the same
// work per repetition whatever their speed; the simulated ones run for
// a fixed virtual duration, which host noise cannot touch. The sizes
// are what lets 4 + 22 × 7 driver runs, each with its set-ups, fit the
// driver's hour on two cores.
const (
	// hostKeys is the preloaded key space of read_cold, read_hot, mixed
	// and scan: ≈ 62 MB of user data against the 8 MiB block cache.
	hostKeys = 60_000
	// hotKeys is read_hot's contiguous key range: ≈ 4 MB, which fits.
	hotKeys = 4_000

	fillKeys         = 60_000
	fillOpsPerWriter = 30_000 // × 2 writers
	readColdOps      = 50_000 // per reader per repetition, × 2 readers
	readHotOps       = 150_000
	mixedPuts        = 20_000 // the writer's puts per repetition
	scanOps          = 8_000  // per client per repetition, × 2 clients

	simXPointKeys = 20_000
	simSATAKeys   = 100_000
	// simSATAProbed is the part of sim_sata_fill's key space that starts
	// out written, for its prober to read.
	simSATAProbed = 10_000
	// Virtual seconds simulated per second of the run's budget, sized so
	// that the host spends a little over the budget simulating them; the
	// SATA fill needs about three to reach the Level-0 slowdown trigger.
	simXPointVirtualPerSec = 0.15
	simSATAVirtualPerSec   = 0.5

	hostClients = 2 // ≤ nproc on the 2-core sandbox
	minReps     = 3

	// An untraced run builds its starting state at least three times and
	// reports the median; a cheap set-up is repeated for as long as all
	// of them together stay under setupBudget, up to maxSetups.
	maxSetups   = 15
	setupBudget = 1.5 // seconds
)

// anotherSetup reports whether the starting state is to be built once
// more before the run measures on it.
func (r *run) anotherSetup() bool {
	n, total := len(r.setupS), 0.0
	for _, s := range r.setupS {
		total += s
	}
	return n < r.setups || (r.setups > 1 && n < maxSetups && total < setupBudget)
}

// workloadFuncs maps each workload of BENCHMARK.json to its runner.
var workloadFuncs = map[string]func(*run) error{
	"fill":      runFill,
	"read_cold": func(r *run) error { return runRead(r, false) },
	"read_hot":  func(r *run) error { return runRead(r, true) },
	"mixed":     runMixed,
	"scan":      runScan,
	"sim_xpoint_mixed": func(r *run) error {
		return runSim(r, simSpec{storage.XPoint(), simXPointKeys, simXPointKeys, 2, 2, simXPointVirtualPerSec})
	},
	"sim_sata_fill": func(r *run) error {
		return runSim(r, simSpec{storage.SATAFlash(), simSATAKeys, simSATAProbed, 1, 4, simSATAVirtualPerSec})
	},
}

// repeat runs one timed repetition after another until the budget is
// spent, and at least minReps (plus a traced run's reference ones).
func (r *run) repeat(one func(last bool) error) error {
	start := time.Now()
	for {
		last := len(r.rates)+1 >= minReps && time.Since(start) >= r.budget
		if err := one(last); err != nil {
			return err
		}
		if last {
			return nil
		}
	}
}

// noteStore records a store's write amplification over its whole life
// so far: bytes the device was sent (WAL, flush and compaction output,
// MANIFEST) per byte of user key and value.
func (r *run) noteStore(st *store, puts int64) {
	r.writeAmps = append(r.writeAmps, ratio(float64(st.dev.Stats().WriteBytes), float64(puts*userBytesPerOp)))
	if r.traced {
		ls := st.db.LevelStats()
		r.layer.l0End = float64(ls.Levels[0].Files)
	}
}

func (r *run) verify(st *store) error {
	checked, bad, err := st.verifyAll(r.ds)
	r.attempted += checked
	r.failed += bad
	return err
}

// runFill: every repetition starts on an empty store; two writers put
// random keys of their own half of the key space, then the store is
// flushed and left to settle inside the timed phase.
func runFill(r *run) error {
	var streams [hostClients][]uint32
	for r.anotherSetup() {
		t0 := time.Now()
		r.ds = newDataset(r.seed, fillKeys)
		for c := range streams {
			streams[c] = opStream(r.seed, r.workload, c, hostClients, 0, fillKeys, true)
		}
		st, err := openHostStore(false)
		if err != nil {
			return err
		}
		if err := st.db.Close(); err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	cs := make([]*client, hostClients)
	for c := range cs {
		cs[c] = newClient(c, opPut, streams[c], fillOpsPerWriter)
	}
	return r.repeat(func(last bool) error {
		st, err := openHostStore(r.traced)
		if err != nil {
			return err
		}
		r.ds.resetVersions()
		for _, c := range cs {
			c.pos = 0
		}
		err = r.rep(st, cs, opPut, func() (int64, error) {
			clients(st.clk, hostClients, func(c int) {
				for n := 0; n < fillOpsPerWriter; n++ {
					cs[c].do(r, st)
				}
			})
			return hostClients * fillOpsPerWriter, st.drain()
		})
		if err != nil {
			return err
		}
		r.noteStore(st, hostClients*fillOpsPerWriter)
		if err := r.verify(st); err != nil {
			return err
		}
		if !last {
			return st.db.Close()
		}
		var live int64
		for id := range r.ds.keys {
			if r.ds.done[id].Load() > 0 {
				live++
			}
		}
		r.layer.spaceAmp = ratio(float64(st.mem.TotalBytes()), float64(live*userBytesPerOp))
		// Close, reopen on the same files, and read a sample back.
		if err := st.db.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := st.reopen(); err != nil {
			return err
		}
		r.layer.reopenMs = float64(time.Since(t0)) / 1e6
		checked, bad := st.verifySample(r.ds, 10_000)
		r.attempted += checked
		r.failed += bad
		return st.db.Close()
	})
}

// preloaded builds the dataset, the clients' op streams over [lo, hi)
// and a settled store holding version 1 of every key, r.setups times,
// and returns the last. Writers draw keys of their own share only.
func preloaded(r *run, kinds []opKind, lo, hi uint32, latCap int) (*store, []*client, error) {
	var st *store
	var cs []*client
	for r.anotherSetup() {
		if st != nil {
			if err := st.db.Close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		r.ds = newDataset(r.seed, hostKeys)
		cs = cs[:0]
		for c, kind := range kinds {
			cs = append(cs, newClient(c, kind, opStream(r.seed, r.workload, c, len(kinds), lo, hi, false), latCap))
		}
		var err error
		if st, err = openHostStore(r.traced); err != nil {
			return nil, nil, err
		}
		if err := st.preload(r.ds, hostKeys); err != nil {
			return nil, nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	return st, cs, nil
}

// runRead: two readers issue uniform Gets against the preloaded store,
// over all of it (cold: far larger than the block cache) or over one
// contiguous range that fits the cache (hot).
func runRead(r *run, hot bool) error {
	lo, hi, ops := uint32(0), uint32(hostKeys), readColdOps
	if hot {
		lo = uint32(uint64(r.seed)%(hostKeys/hotKeys)) * hotKeys
		hi, ops = lo+hotKeys, readHotOps
	}
	st, cs, err := preloaded(r, []opKind{opGet, opGet}, lo, hi, ops)
	if err != nil {
		return err
	}
	r.noteStore(st, hostKeys)
	pass := func() {
		clients(st.clk, hostClients, func(c int) {
			for n := 0; n < ops; n++ {
				cs[c].do(r, st)
			}
		})
	}
	pass() // let the block cache and the table cache fill before timing
	err = r.repeat(func(bool) error {
		return r.rep(st, cs, opGet, func() (int64, error) {
			pass()
			return int64(hostClients * ops), nil
		})
	})
	if err != nil {
		return err
	}
	return st.db.Close()
}

// runMixed: one writer overwrites random keys and then drains the
// store, while one reader issues uniform Gets until the writer is
// done. The rate is the writer's; the latencies are the reader's.
func runMixed(r *run) error {
	st, cs, err := preloaded(r, []opKind{opPut, opGet}, 0, hostKeys, 1<<20)
	if err != nil {
		return err
	}
	puts := int64(hostKeys)
	err = r.repeat(func(bool) error {
		puts += mixedPuts
		return r.rep(st, cs, opGet, func() (int64, error) {
			var stop atomic.Bool
			var derr error
			clients(st.clk, 2, func(c int) {
				if cs[c].kind == opPut {
					for n := 0; n < mixedPuts; n++ {
						cs[c].do(r, st)
					}
					derr = st.drain()
					stop.Store(true)
					return
				}
				for !stop.Load() {
					cs[c].do(r, st)
				}
			})
			return mixedPuts, derr
		})
	})
	if err != nil {
		return err
	}
	r.noteStore(st, puts)
	if err := r.verify(st); err != nil {
		return err
	}
	return st.db.Close()
}

// runScan: two clients each open an iterator, seek to a random key,
// read the next scanLen entries and close.
func runScan(r *run) error {
	st, cs, err := preloaded(r, []opKind{opScan, opScan}, 0, hostKeys-scanLen, scanOps)
	if err != nil {
		return err
	}
	r.noteStore(st, hostKeys)
	err = r.repeat(func(bool) error {
		return r.rep(st, cs, opScan, func() (int64, error) {
			clients(st.clk, hostClients, func(c int) {
				for n := 0; n < scanOps; n++ {
					cs[c].do(r, st)
				}
			})
			return hostClients * scanOps, nil
		})
	})
	if err != nil {
		return err
	}
	return st.db.Close()
}

// simSpec is a simulated workload: a device profile, a key space of
// which the first preload keys start out written, readers of those
// keys and writers of the whole space, all running for a fixed virtual
// duration. The latencies are the readers': a modelled Put costs one of
// a handful of fixed amounts, so every percentile of Put latency reads
// the same on every run and can gate nothing, while a Get queues on
// the device behind whatever the writers caused.
type simSpec struct {
	prof             storage.Profile
	keys, preload    int
	readers, writers int
	virtualPerSec    float64
}

var simEpoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// runSim runs sp under the simulation kernel. Rates and latencies are
// on the virtual clock; CPU and set-up time are the host's.
func runSim(r *run, sp simSpec) error {
	r.sim, r.refReps = true, 0 // one window, so no untraced reference repetitions
	var err error
	for err == nil && r.anotherSetup() {
		k := sim.New(simEpoch)
		k.Run(func() {
			t0 := time.Now()
			r.ds = newDataset(r.seed, sp.keys)
			var cs []*client
			for c := 0; c < sp.readers; c++ {
				cs = append(cs, newClient(c, opGet, opStream(r.seed, r.workload, c, sp.readers, 0, uint32(sp.preload), false), 1<<18))
			}
			for c := 0; c < sp.writers; c++ {
				cs = append(cs, newClient(sp.readers+c, opPut, opStream(r.seed, r.workload+"/w", c, sp.writers, 0, uint32(sp.keys), true), 1<<18))
			}
			var st *store
			if st, err = openStore(k, sp.prof, true, r.traced); err != nil {
				return
			}
			if sp.preload > 0 {
				if err = st.preload(r.ds, sp.preload); err != nil {
					return
				}
			}
			r.setupS = append(r.setupS, time.Since(t0).Seconds())
			if !r.anotherSetup() {
				err = r.simWindow(k, st, cs, sp)
			}
			if cerr := st.db.Close(); err == nil {
				err = cerr
			}
		})
	}
	return err
}

// simWindow is the measured window of a simulated workload: every
// client runs closed-loop until the virtual deadline.
func (r *run) simWindow(k *sim.Kernel, st *store, cs []*client, sp simSpec) error {
	virtual := time.Duration(r.budget.Seconds() * sp.virtualPerSec * float64(time.Second))
	err := r.rep(st, cs, opGet, func() (int64, error) {
		end := k.Now().Add(virtual)
		clients(k, len(cs), func(c int) {
			for k.Now().Before(end) {
				cs[c].do(r, st)
			}
		})
		var ops int64
		for _, c := range cs {
			ops += c.ops
		}
		return ops, nil
	})
	if err != nil {
		return err
	}
	var puts int64 = int64(sp.preload)
	for _, c := range cs {
		if c.kind == opPut {
			puts += c.ops
		}
	}
	if puts == 0 {
		return fmt.Errorf("%s: no write reached the store", r.workload)
	}
	r.noteStore(st, puts)
	return r.verify(st)
}
