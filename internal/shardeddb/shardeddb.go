// Package shardeddb partitions the keyspace across N independent
// engine.DB instances ("shards") behind the engine's public API. It is
// the scale-out answer to the paper's Algorithm-2 finding: every write
// in a single engine funnels through one group-commit leader, so on
// fast devices (PCIe flash, 3D XPoint) the writer queue — not the
// device — is the ceiling. Range sharding gives each shard its own
// writer queue, WAL, memtable and LSM tree, multiplying the commit
// paths while keys stay ordered for range scans (a full iteration is
// the plain concatenation of the shards' iterations).
//
// What is NOT duplicated per shard — the shared resources, built,
// reported and closed by one engine.Shared that every shard opens in
// (DESIGN §16):
//
//   - One block cache (keys salted per shard), so hot shards can use
//     the whole memory budget.
//   - One background worker pool (internal/bgpool): each shard still
//     runs its own flush/compaction goroutines, but a job must hold a
//     pool token to execute, and tokens go to the highest-priority
//     waiter — flushes before compactions, the shard nearest its stall
//     trigger first. Cross-shard scheduling by L0 pressure.
//   - One write controller (throttle.Controller.SetSourceState): a
//     global delayed-write budget where the worst shard's stall state
//     governs, so total foreground ingest respects one global rate.
//   - One event/metrics/Prometheus stream: every engine event carries
//     a `shard` dimension, and a single HTTP ops plane (internal/obs)
//     serves the combined /metrics, /stats, /events and /healthz.
//
// Cross-shard atomic batches use a two-phase commit with presumed
// abort (txn.go): prepare records carrying the sub-batch payload are
// made durable in every participant, then a commit record — a reserved
// key in the lowest-numbered participant — is the commit point, then
// the data applies. Crash anywhere never exposes a torn batch: recovery
// at open rolls committed transactions forward and aborts the rest.
//
// Layout: one filesystem, Engine.FS, holds every shard under a
// "shard-NNN/" prefix (vfs.NewPrefix), so a single crash snapshot
// captures the whole store at one instant. Each shard's WAL is the only
// durable log; there is no store-level file.
package shardeddb

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/keys"
	"xpointdb/internal/vfs"
)

// ErrNotFound re-exports the engine's miss sentinel.
var ErrNotFound = engine.ErrNotFound

// ErrClosed re-exports the engine's closed sentinel, so a caller of
// either store checks one error.
var ErrClosed = engine.ErrClosed

// ErrReservedKey rejects user keys in the internal 0x00-prefixed
// keyspace, which the two-phase commit machinery owns (prepare
// records, WAL-sync markers).
var ErrReservedKey = errors.New("shardeddb: keys beginning with 0x00 are reserved")

// Options configures a sharded DB.
type Options struct {
	// Shards is the number of engine instances (≥ 1).
	Shards int

	// Boundaries are the Shards-1 split keys, ascending: shard i holds
	// keys in [Boundaries[i-1], Boundaries[i]). Empty with Shards > 1
	// defaults to UniformBoundaries(Shards).
	Boundaries [][]byte

	// Engine is the per-shard option template. FS is the base
	// filesystem carved into "shard-NNN/" prefixes. BlockCacheSize is the
	// TOTAL budget of the one shared cache. EventListener/ObsAddr
	// configure the single shared event stream and ops server;
	// CompactionRateBytesPerSec and MaxAllowedSpace are one pacer and
	// one budget across every shard.
	Engine engine.Options

	// PoolSlots sizes the shared background pool. 0 takes
	// engine.NewShared's default, max(2, Shards) across several shards
	// — enough that a single shard is never starved, while 2×Shards
	// worker goroutines contend for Shards tokens.
	PoolSlots int
}

// UniformBoundaries splits the full byte keyspace into n ranges by
// first byte — the right default when keys are uniformly distributed
// in their leading byte. Workload-aware callers should pass explicit
// boundaries instead.
func UniformBoundaries(n int) [][]byte {
	b := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		b = append(b, []byte{byte(256 * i / n)})
	}
	return b
}

// DB is a range-sharded store over N engine instances.
type DB struct {
	opts       Options
	shards     []*engine.DB
	boundaries [][]byte

	// shared is what the shards have in common — block cache, background
	// pool, write controller, compaction pacer, space budget, ops plane.
	// Built here before any shard opens, closed here after the last.
	shared *engine.Shared

	clk clock.Clock

	// Cross-shard batch state (txn.go). txnMu guards the ID counter, the
	// pending set and the GC list, and is never held across an Apply;
	// txnCond wakes a writer waiting for queued steps another writer
	// runs. txnQueued counts the pending batches that are queued.
	txnMu      clock.Mutex
	txnCond    clock.Cond
	txnID      uint64
	txnPending map[uint64]*txn
	txnDone    []*txn // finished batches whose commit records await GC
	txnSinceGC int    // batches finished since the last GC pass began
	txnGCing   bool
	txnQueued  atomic.Int64

	closed atomic.Bool

	// Cross-shard transaction counters (Prometheus + tests).
	crossBatches  atomic.Int64
	txnAborts     atomic.Int64
	txnP2Failures atomic.Int64
	rolledForward atomic.Int64
	abortedAtOpen atomic.Int64
}

// Open opens (creating if necessary) a sharded store.
func Open(opts Options) (*DB, error) {
	if opts.Shards < 1 {
		return nil, errors.New("shardeddb: Options.Shards must be >= 1")
	}
	if opts.Engine.FS == nil {
		return nil, errors.New("shardeddb: Options.Engine.FS is required")
	}
	if len(opts.Boundaries) == 0 && opts.Shards > 1 {
		opts.Boundaries = UniformBoundaries(opts.Shards)
	}
	if len(opts.Boundaries) != opts.Shards-1 {
		return nil, fmt.Errorf("shardeddb: %d boundaries for %d shards (want %d)",
			len(opts.Boundaries), opts.Shards, opts.Shards-1)
	}
	for i, b := range opts.Boundaries {
		if len(b) == 0 || b[0] == 0 {
			return nil, fmt.Errorf("shardeddb: boundary %d empty or in reserved keyspace", i)
		}
		if i > 0 && bytes.Compare(opts.Boundaries[i-1], b) >= 0 {
			return nil, fmt.Errorf("shardeddb: boundaries not strictly ascending at %d", i)
		}
	}
	db := &DB{
		opts:       opts,
		boundaries: opts.Boundaries,
		clk:        opts.Engine.Clock,
		txnPending: make(map[uint64]*txn),
		shared:     engine.NewShared(opts.Engine, opts.Shards, opts.PoolSlots),
	}
	if db.clk == nil {
		db.clk = clock.Real{}
	}
	db.txnMu = db.clk.NewMutex()
	db.txnCond = db.clk.NewCond(db.txnMu)

	// Open every shard inside the shared set.
	db.shards = make([]*engine.DB, opts.Shards)
	for i := range db.shards {
		sfs := vfs.NewPrefix(opts.Engine.FS, fmt.Sprintf("shard-%03d/", i))
		var err error
		if db.shards[i], err = db.shared.Open(i, db.shardOptions(i, sfs)); err != nil {
			db.abortOpen(i)
			return nil, fmt.Errorf("shardeddb: open shard %d: %w", i, err)
		}
	}

	// Resolve the cross-shard batches the last run left in flight.
	if err := db.recoverTxns(); err != nil {
		db.abortOpen(opts.Shards)
		return nil, err
	}

	if err := db.shared.Plane.Serve(db.WritePrometheus, db.StatsReport, db.healthz); err != nil {
		_ = db.Close()
		return nil, fmt.Errorf("shardeddb: ops server: %w", err)
	}
	return db, nil
}

// abortOpen undoes a failed Open: the first n shards, then the set.
func (db *DB) abortOpen(n int) {
	for _, s := range db.shards[:n] {
		_ = s.Close()
	}
	db.shared.Close()
}

// shardOptions builds shard i's engine options from the template: its
// filesystem and, when the caller set WALFS, its own WAL namespace
// there (one WAL device across shards is fine, equal names are not).
func (db *DB) shardOptions(i int, fs vfs.FS) engine.Options {
	o := db.opts.Engine
	o.FS = fs
	if o.WALFS != nil {
		o.WALFS = vfs.NewPrefix(o.WALFS, fmt.Sprintf("shard-%03d/", i))
	}
	return o
}

// Engines returns every shard's engine in shard order (stats, tests,
// manual compaction). The slice is the store's own; do not modify it.
func (db *DB) Engines() []*engine.DB { return db.shards }

// ShardForKey returns the index of the shard owning key.
func (db *DB) ShardForKey(key []byte) int {
	// First boundary strictly greater than key; the key lives in that
	// boundary's shard.
	return sort.Search(len(db.boundaries), func(i int) bool {
		return bytes.Compare(key, db.boundaries[i]) < 0
	})
}

// ShardRange returns shard i's key range [start, end); start is empty
// for shard 0 and end is nil (unbounded) for the last shard.
func (db *DB) ShardRange(i int) (start, end []byte) {
	if i > 0 {
		start = db.boundaries[i-1]
	}
	if i < len(db.boundaries) {
		end = db.boundaries[i]
	}
	return start, end
}

// checkKey rejects reserved keys.
func checkKey(key []byte) error {
	if len(key) > 0 && key[0] == 0 {
		return ErrReservedKey
	}
	return nil
}

// Get returns the value for key.
func (db *DB) Get(key []byte) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	return db.shards[db.ShardForKey(key)].Get(key)
}

// Has reports whether key exists.
func (db *DB) Has(key []byte) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	return db.shards[db.ShardForKey(key)].Has(key)
}

// Put inserts or overwrites key.
func (db *DB) Put(key, value []byte) error {
	return db.write(key, func(s *engine.DB) error { return s.Put(key, value) })
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	return db.write(key, func(s *engine.DB) error { return s.Delete(key) })
}

// write runs a single-key write on the shard owning key, behind the
// fence (txn.go).
func (db *DB) write(key []byte, fn func(*engine.DB) error) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s := db.ShardForKey(key)
	if err := db.fence(s); err != nil {
		return err
	}
	return fn(db.shards[s])
}

// MultiGet looks up every key, returning parallel values/errors
// slices. Lookups are grouped by shard and the groups run
// concurrently, one clock process per shard touched.
func (db *DB) MultiGet(keys ...[]byte) ([][]byte, []error) {
	values := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	byShard := make([][]int, len(db.shards))
	for i, k := range keys {
		if err := checkKey(k); err != nil {
			errs[i] = err
			continue
		}
		s := db.ShardForKey(k)
		byShard[s] = append(byShard[s], i)
	}
	var touched []int
	for s, idxs := range byShard {
		if len(idxs) > 0 {
			touched = append(touched, s)
		}
	}
	clock.Parallel(db.clk, "multiget", len(touched), func(j int) {
		s := touched[j]
		for _, i := range byShard[s] {
			values[i], errs[i] = db.shards[s].Get(keys[i])
		}
	})
	return values, errs
}

// splitBatch routes b's operations into per-shard sub-batches.
func (db *DB) splitBatch(b *batch.Batch) (map[int]*batch.Batch, error) {
	parts := make(map[int]*batch.Batch)
	err := b.Iterate(func(kind keys.Kind, key, value []byte) error {
		if err := checkKey(key); err != nil {
			return err
		}
		s := db.ShardForKey(key)
		sub := parts[s]
		if sub == nil {
			sub = &batch.Batch{}
			parts[s] = sub
		}
		if kind == keys.KindDelete {
			sub.Delete(key)
		} else {
			sub.Put(key, value)
		}
		return nil
	})
	return parts, err
}

// Apply atomically applies b. Batches confined to one shard take that
// shard's normal group-commit path; batches spanning shards commit via
// the two-phase protocol (txn.go) — all of b survives a crash, or none
// of it does. A write first runs the queued steps of any failed
// cross-shard batch it shares a shard with (txn.go), as Put and Delete
// do.
func (db *DB) Apply(b *batch.Batch, syncWAL bool) error {
	if db.closed.Load() {
		return ErrClosed
	}
	parts, err := db.splitBatch(b)
	if err != nil {
		return err
	}
	switch len(parts) {
	case 0:
		return nil
	case 1:
		for s, sub := range parts {
			if err := db.fence(s); err != nil {
				return err
			}
			return db.shards[s].Apply(sub, syncWAL)
		}
	}
	return db.applyCross(parts, syncWAL)
}

// Flush flushes every shard's memtable.
func (db *DB) Flush() error {
	for i, s := range db.shards {
		if err := s.Flush(); err != nil {
			return fmt.Errorf("shardeddb: flush shard %d: %w", i, err)
		}
	}
	return nil
}

// BackgroundError returns the first shard's latched background error,
// or nil when every shard is healthy.
func (db *DB) BackgroundError() error {
	for _, s := range db.shards {
		if err := s.BackgroundError(); err != nil {
			return err
		}
	}
	return nil
}

// Resume is the operator's manual recovery (engine.DB.Resume) fanned
// out to every shard. Every shard is tried; the first failure is
// returned with its shard named.
func (db *DB) Resume() error {
	var first error
	for i, s := range db.shards {
		if err := s.Resume(); err != nil && first == nil {
			first = fmt.Errorf("shardeddb: resume shard %d: %w", i, err)
		}
	}
	return first
}

// Health returns the worst health across shards.
func (db *DB) Health() engine.Health {
	worst := engine.Healthy
	for _, s := range db.shards {
		if h := s.Health(); h > worst {
			worst = h
		}
	}
	return worst
}

// TxnStats reports cross-shard transaction counters: committed
// cross-shard batches, aborts (prepare failures),
// recovery roll-forwards and recovery aborts.
func (db *DB) TxnStats() (cross, aborts, rolledForward, abortedAtOpen int64) {
	return db.crossBatches.Load(), db.txnAborts.Load(),
		db.rolledForward.Load(), db.abortedAtOpen.Load()
}

// Shared returns the resources the shards have in common.
func (db *DB) Shared() *engine.Shared { return db.shared }

// Close closes every shard, in parallel — each drains its own writers
// and workers — and then the shared set. Queued steps of failed
// cross-shard batches are left to recovery at the next open.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return ErrClosed
	}
	errs := make([]error, len(db.shards))
	clock.Parallel(db.clk, "close-shard", len(db.shards), func(i int) {
		errs[i] = db.shards[i].Close()
	})
	db.shared.Close()
	if i := firstErr(errs); i >= 0 {
		return fmt.Errorf("shardeddb: close shard %d: %w", i, errs[i])
	}
	return nil
}
