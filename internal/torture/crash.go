package torture

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// crash is the crash/reopen regime; contract clauses 1–5 in the
// package comment.
type crash struct {
	img vfs.FS // the materialised crash image the store recovered on
}

func (c *crash) tune(*engine.Options) {}

func (c *crash) start(r *run) {
	// Seeded fault rules. Errors they surface through Apply/Flush end
	// the workload early; the background-error latch must then keep
	// the engine honest. Per-shard fs traffic grows with the shard
	// count, so the op-counted windows do too.
	rng, n := r.rng, int64(r.st.shards())
	if rng.Float64() < 0.25 {
		r.ffs.AddRule(faultfs.Rule{
			Ops: []faultfs.Op{faultfs.OpSync}, Path: r.st.glob("*.log"),
			After: rng.Int63n(30 + 10*n), Count: 1,
		})
		r.cfg.Logf("fault: one WAL sync failure armed")
	}
	if rng.Float64() < 0.15 {
		r.ffs.AddRule(faultfs.Rule{
			Ops: []faultfs.Op{faultfs.OpCreate}, Path: r.st.glob("*.sst"),
			Prob: 0.1, Count: 2,
		})
		r.cfg.Logf("fault: transient SST create failures armed")
	}
	if rng.Float64() < 0.10 {
		r.ffs.AddRule(faultfs.Rule{
			Ops: []faultfs.Op{faultfs.OpSync}, Path: r.st.glob("MANIFEST-*"),
			After: rng.Int63n(8), Count: 1,
		})
		r.cfg.Logf("fault: one MANIFEST sync failure armed")
	}
	if log := r.st.coordLog(); log != "" && rng.Float64() < 0.10 {
		r.ffs.AddRule(faultfs.Rule{
			Ops: []faultfs.Op{faultfs.OpSync}, Path: log,
			After: rng.Int63n(10), Count: 1,
		})
		r.cfg.Logf("fault: one coordinator-log sync failure armed")
	}
	if rng.Float64() < 0.15 {
		r.ffs.AddRule(faultfs.Rule{
			Ops:  []faultfs.Op{faultfs.OpWrite, faultfs.OpSync},
			Prob: 0.05, Count: 20,
			Fault: faultfs.Fault{Latency: 200 * time.Microsecond},
		})
		r.cfg.Logf("fault: write/sync latency armed")
	}
	// Crash at a random filesystem-operation boundary somewhere inside
	// the workload.
	r.ffs.ArmCrash(50 + rng.Int63n(2500+500*n))
}

func (c *crash) before(*run, int) error { return nil }
func (c *crash) spotRate() float64      { return 0.02 }
func (c *crash) absorb(*run, uint64)    {}

// Any write may fail once the injected faults latch — the op's fate is
// resolved by the recovered cut markers — but reads must keep serving.
func (c *crash) honest(_ error, read bool) bool { return !read }
func (c *crash) failed(*run) (bool, error)      { return true, nil }

// settle freezes the crash snapshot (at the current boundary if the
// armed crash never triggered: short runs, early faults), materialises
// one image of it, recovers the whole store on that image, and checks
// clauses 2–4 against the recovered cut markers.
func (c *crash) settle(r *run) error {
	snap := r.ffs.ForceCrash()
	_ = r.st.Close() // may fail under latched background errors; the disk image is the snapshot

	modes := []struct {
		name string
		opts faultfs.CrashOpts
	}{
		{"clean", faultfs.CrashOpts{}},
		{"partial-sync", faultfs.CrashOpts{KeepUnsynced: true}},
		{"torn", faultfs.CrashOpts{KeepUnsynced: true, Torn: true}},
	}
	mode := modes[r.rng.Intn(len(modes))]
	r.phase = mode.name
	img, err := snap.Materialize(storage.New(clock.Real{}, storage.Null()), r.rng, mode.opts)
	if err != nil {
		return fmt.Errorf("torture seed %d: materialize %s: %w", r.cfg.Seed, mode.name, err)
	}
	c.img = img
	if err := r.st.open(img); err != nil {
		return r.violation("recovery failed: %v", err)
	}

	cut := make([]int, r.st.shards())
	for s := range cut {
		cut[s] = -1
		v, gerr := r.st.Get([]byte(r.st.marker(s)))
		switch {
		case gerr == nil:
			if cut[s], err = strconv.Atoi(string(v)); err != nil {
				return r.violation("shard %d cut marker corrupted: %q", s, v)
			}
		case !errors.Is(gerr, engine.ErrNotFound):
			return r.violation("reading shard %d cut marker: %v", s, gerr)
		}
	}
	cross := 0
	for _, o := range r.ops {
		if len(o.participants) > 1 {
			cross++
		}
	}
	ctr := r.c()
	r.cfg.Logf("mode=%s submitted=%d cross=%d cuts=%v maxPossible=%d rolledForward=%d abortedAtOpen=%d",
		mode.name, len(r.ops), cross, cut, r.maxPossible, ctr.rolledForward, ctr.abortedAtOpen)

	for s, got := range cut {
		if got > r.maxPossible {
			return r.violation("phantom future data on shard %d: cut %d, last op possibly in the image is %d",
				s, got, r.maxPossible)
		}
	}
	for i, o := range r.ops {
		applied := 0
		for _, s := range o.participants {
			if cut[s] >= i {
				applied++
			}
		}
		if applied != 0 && applied != len(o.participants) {
			return r.violation("TORN CROSS-SHARD BATCH: op %d touched shards %v but survived on only %d of them (cuts %v)",
				i, o.participants, applied, cut)
		}
		if o.ackedDurable && applied == 0 {
			return r.violation("acknowledged-durable data lost: op %d (shards %v) was acked, cuts %v\n%s",
				i, o.participants, cut, r.st.layout())
		}
	}
	// From here on the oracle is the exact replay of the surviving
	// prefixes; nothing is loose after a reopen.
	r.live, r.loose = r.replay(cut), map[string]bool{}
	return nil
}

// finish proves the recovered store's own progress is durable: a second
// reopen on the same image must still verify.
func (c *crash) finish(r *run) error {
	if err := r.st.open(c.img); err != nil {
		return r.violation("second recovery failed: %v", err)
	}
	if err := r.verify(); err != nil {
		return fmt.Errorf("%w (after second reopen)", err)
	}
	if err := r.st.Close(); err != nil {
		return r.violation("final close failed: %v", err)
	}
	return nil
}
