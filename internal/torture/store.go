package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"xpointdb/internal/batch"
	"xpointdb/internal/engine"
	"xpointdb/internal/kvstore"
	"xpointdb/internal/shardeddb"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// store is the system under test as the driver and the nemeses see it.
// It is an interface — not two concrete calls — so the oracle self-test
// can drive the real driver against fakes that lie.
type store interface {
	// open opens the store on fs with the run's seeded configuration.
	// Calling it again after Close — on the same fs or on a crash
	// image — is a recovery.
	open(fs vfs.FS) error
	Apply(b *batch.Batch, sync bool) error
	Get(key []byte) ([]byte, error)
	Flush() error
	// scan visits every user-visible key in ascending order.
	scan(visit func(key, value []byte)) error
	Health() engine.Health
	BackgroundError() error
	// Resume is the operator's manual recovery, fanned out to every shard.
	Resume() error
	Close() error
	// counters sums the recovery, integrity and space counters of
	// every shard of the open handle.
	counters() counters
	// syncEvents waits until the listener holds every event the store
	// emitted so far and returns the sequence number of the last one.
	syncEvents() uint64
	shards() int
	shardOf(key string) int
	// marker is shard s's monotone cut-marker key.
	marker(s int) string
	// glob turns a per-engine file pattern ("*.log") into a
	// fault-rule path glob over the store's directory layout.
	glob(pattern string) string
	describe() string
	// layout renders the LSM shape for violation reports.
	layout() string
}

// counters is what the nemesis contracts read from engine.Metrics,
// summed over shards, plus the open-time 2PC resolution counts.
type counters struct {
	soft, hard, attempts, successes, giveups            int64
	detected, quarantined, repaired, dataLoss           int64
	enospc, spaceWaits, spaceRecoveries, spaceDeferrals int64
	rolledForward, abortedAtOpen                        int64
	eventsDropped                                       int64
}

func (c *counters) add(m *engine.Metrics) {
	c.soft += m.SoftErrors.Load()
	c.hard += m.HardErrors.Load()
	c.attempts += m.RecoveryAttempts.Load()
	c.successes += m.RecoverySuccesses.Load()
	c.giveups += m.RecoveryGiveups.Load()
	c.detected += m.CorruptionsDetected.Load()
	c.quarantined += m.FilesQuarantined.Load()
	c.repaired += m.CorruptionsRepaired.Load()
	c.dataLoss += m.DataLossEvents.Load()
	c.enospc += m.EnospcErrors.Load()
	c.spaceWaits += m.SpaceWaits.Load()
	c.spaceRecoveries += m.SpaceRecoveries.Load()
	c.spaceDeferrals += m.SpaceDeferrals.Load()
}

// geometry is the seeded engine configuration of one run.
type geometry struct {
	memtableSize   int64
	targetFileSize int64
	baseLevelBytes int64
	l0Trigger      int
	pipelined      bool
	blockSize      int
	maxSub         int
}

func pickGeometry(rng *rand.Rand) geometry {
	return geometry{
		// Small tables force frequent rotation, flush, and compaction,
		// so faults land inside interesting machinery.
		memtableSize:   int64(4<<10) + rng.Int63n(28<<10),
		targetFileSize: int64(8<<10) + rng.Int63n(24<<10),
		baseLevelBytes: int64(32<<10) + rng.Int63n(64<<10),
		l0Trigger:      2 + rng.Intn(3),
		pipelined:      rng.Intn(2) == 0,
		blockSize:      1<<10 + rng.Intn(3)<<10,
		// Crashes must land inside multi-range atomic installs too, so
		// the sub-compaction fan-out varies across seeds.
		maxSub: 1 + rng.Intn(4),
	}
}

// engineOptions builds the engine options every open of one run uses:
// the simulated environment's (defaults on the kernel clock with the
// calibrated cost model) on fs, the seeded geometry, then the nemesis's
// own knobs.
func engineOptions(base engine.Options, fs vfs.FS, g geometry, tune func(*engine.Options)) engine.Options {
	o := base
	o.FS = fs
	o.MemtableSize = g.memtableSize
	o.TargetFileSize = g.targetFileSize
	o.BaseLevelBytes = g.baseLevelBytes
	o.L0CompactionTrigger = g.l0Trigger
	o.L0SlowdownTrigger = g.l0Trigger + 6
	o.L0StopTrigger = g.l0Trigger + 12
	o.PipelinedWrites = g.pipelined
	o.BlockSize = g.blockSize
	o.MaxSubcompactions = g.maxSub
	o.ThrottleMode = throttle.ModeNone
	o.SyncWAL = false // per-op sync decided by the workload
	tune(&o)
	return o
}

// newStore picks the adapter for cfg.Shards and draws its seeded
// parameters.
func newStore(cfg Config, rng *rand.Rand, base engine.Options, geo geometry, tune func(*engine.Options)) store {
	h := handle{base: base, geo: geo, tune: tune}
	if cfg.Shards <= 1 {
		return &engineStore{handle: h}
	}
	return &shardedStore{
		handle: h, n: cfg.Shards, keys: cfg.Keys,
		slots: 2 + rng.Intn(cfg.Shards+1), // undersized pool stresses cross-shard scheduling
	}
}

// handle is what both adapters share: the run's seeded configuration
// and the open store, held as the store seam so everything that needs
// only its method set — Apply, Get, Flush, Health, BackgroundError,
// Resume, Close, the scan and the per-engine walks below — is written
// once.
type handle struct {
	kvstore.Store
	base engine.Options
	geo  geometry
	tune func(*engine.Options)
	// banked is what the handles closed before this one counted: the
	// counters of a reopened store carry on (the 2PC resolution counts
	// are the current open's).
	banked counters
}

func (h *handle) counters() counters {
	c := h.banked
	for _, e := range h.Engines() {
		c.add(e.Metrics())
	}
	if sdb, ok := h.Store.(*shardeddb.DB); ok {
		_, _, c.rolledForward, c.abortedAtOpen = sdb.TxnStats()
	}
	c.eventsDropped += h.Shared().EventsDropped.Load()
	return c
}

// Close closes the store and, the first time, banks its counters.
func (h *handle) Close() error {
	err := h.Store.Close()
	if !errors.Is(err, engine.ErrClosed) {
		h.banked = h.counters()
	}
	return err
}

// scan visits every user-visible key in ascending order.
func (h *handle) scan(visit func(key, value []byte)) error {
	it, err := h.NewIter()
	if err != nil {
		return err
	}
	defer it.Close()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		visit(it.Key(), it.Value())
	}
	return it.Error()
}

func (h *handle) syncEvents() uint64 { return h.Shared().Plane.Sync() }

func (h *handle) layout() string {
	var b strings.Builder
	for i, e := range h.Engines() {
		fmt.Fprintf(&b, "shard %d:\n%s", i, e.DebugLayout())
	}
	return b.String()
}

// engineStore is the one-shard store: a bare engine.DB. Every op has
// participants {0} and the single cut marker is "@cut".
type engineStore struct{ handle }

func (e *engineStore) open(fs vfs.FS) error {
	db, err := engine.Open(engineOptions(e.base, fs, e.geo, e.tune))
	if err == nil {
		e.Store = db // a failed reopen keeps the old, closed handle
	}
	return err
}

func (e *engineStore) shards() int                { return 1 }
func (e *engineStore) shardOf(string) int         { return 0 }
func (e *engineStore) marker(int) string          { return "@cut" }
func (e *engineStore) glob(pattern string) string { return pattern }
func (e *engineStore) describe() string           { return "engine" }

// shardedStore is the range-sharded store: n engines behind
// shardeddb.DB, one crash image holding every shard directory. Each
// shard's cut marker sits just inside its key range — the range start
// followed by a 0x01 byte sorts below every user key sharing the
// boundary prefix and outside the reserved 0x00 namespace. Because
// each shard is an engine with its own WAL, the
// surviving ops on one shard always form a prefix of the ops that
// touched it, so the recovered marker identifies that prefix exactly.
type shardedStore struct {
	handle
	n, keys int
	slots   int
}

func (s *shardedStore) sdb() *shardeddb.DB { return s.Store.(*shardeddb.DB) }

// open does not go through kvstore.Open: the seeded PoolSlots is not
// part of that opener's signature.
func (s *shardedStore) open(fs vfs.FS) error {
	opts := shardeddb.Options{
		Shards:    s.n,
		PoolSlots: s.slots,
		Engine:    engineOptions(s.base, fs, s.geo, s.tune),
	}
	// Split the "k%03d" key universe evenly.
	for i := 1; i < s.n; i++ {
		opts.Boundaries = append(opts.Boundaries, []byte(keyName(s.keys*i/s.n)))
	}
	db, err := shardeddb.Open(opts)
	if err == nil {
		s.Store = db
	}
	return err
}

func (s *shardedStore) shards() int            { return s.n }
func (s *shardedStore) shardOf(key string) int { return s.sdb().ShardForKey([]byte(key)) }

func (s *shardedStore) marker(shard int) string {
	start, _ := s.sdb().ShardRange(shard)
	return string(start) + "\x01@cut"
}

// Shard files live under "shard-NNN/"; path.Match wildcards do not
// cross '/'.
func (s *shardedStore) glob(pattern string) string { return "*/" + pattern }

func (s *shardedStore) describe() string {
	return fmt.Sprintf("sharded: %d shards, %d pool slots", s.n, s.slots)
}
