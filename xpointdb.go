// Package xpointdb is an LSM-tree key-value store with a simulated
// storage substrate, built as a full reproduction of "From Flash to 3D
// XPoint: Performance Bottlenecks and Potentials in RocksDB with
// Storage Evolution" (Jia & Chen, ISPASS 2020).
//
// The engine implements the RocksDB mechanisms the paper analyzes —
// write batch groups and pipelined writes (Algorithm 2), the Algorithm
// 1 write controller with Level-0 slowdown/stop thresholds, background
// flush and leveled compaction, Bloom filters, a block cache and a
// write-ahead log — plus the paper's three case-study optimizations:
// two-stage throttling, dynamic Level-0 management, and an NVM-resident
// WAL.
//
// Two execution modes share all engine code:
//
//   - Real mode: OpenPath opens a database on the local filesystem
//     with the real clock — a normal, durable key-value store.
//
//   - Simulation mode: Open with a MemFS bound to a simulated device
//     (SATA flash, PCIe flash, 3D XPoint, NVM) and a sim.Kernel clock
//     reproduces the paper's measurements in fast, deterministic
//     virtual time. See NewSimulation and the examples/ directory.
//
// Quickstart:
//
//	db, err := xpointdb.OpenPath("/tmp/mydb")
//	if err != nil { ... }
//	defer db.Close()
//	_ = db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
package xpointdb

import (
	"io"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/costmodel"
	"xpointdb/internal/engine"
	"xpointdb/internal/events"
	"xpointdb/internal/shardeddb"
	"xpointdb/internal/sim"
	"xpointdb/internal/simenv"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// DB is the key-value store. See engine.DB for the method set: Put,
// Get, Delete, Apply, NewIter, Metrics, Close, and the inspection
// helpers used by the experiment harness.
type DB = engine.DB

// Options configures Open.
type Options = engine.Options

// Batch is an atomic group of writes, applied with DB.Apply. A Batch
// may be reused after Apply: the store keeps the applied operations'
// bytes without copying them, and Reset on an applied batch therefore
// starts a fresh buffer rather than overwriting them (a batch never
// applied resets in place). Keys and values passed to Put and Delete
// are copied and stay the caller's.
type Batch = batch.Batch

// Iter is a bidirectional snapshot iterator returned by DB.NewIter.
type Iter = engine.Iter

// Snapshot is a pinned point-in-time view returned by DB.NewSnapshot;
// release it when done.
type Snapshot = engine.Snapshot

// Metrics is the engine's live instrumentation, read through
// DB.StatsReport (/stats) and DB.WritePrometheus (/metrics);
// MetricsSnapshot is the plain-value copy of the counters the
// benchmark harness diffs, taken with Metrics.Snapshot.
type (
	Metrics         = engine.Metrics
	MetricsSnapshot = engine.MetricsSnapshot
)

// PerfContext is a per-operation stage breakdown filled by
// DB.GetWithPerf and DB.ApplyWithPerf (or internally when
// Options.CollectPerf is set).
type PerfContext = engine.PerfContext

// Structured event log (Options.EventListener): Event is the envelope,
// EventListener the sink interface, EventLog the JSON-lines file sink,
// and EventBuffer an in-memory sink for tests and demos.
type (
	Event         = events.Event
	EventListener = events.Listener
	EventLog      = events.EventLog
	EventBuffer   = events.Buffer
)

// NewEventLog returns a JSON-lines event sink writing to w.
func NewEventLog(w io.Writer) *EventLog { return events.NewEventLog(w) }

// DecodeEvents reads back a JSON-lines event stream written by an
// EventLog.
func DecodeEvents(r io.Reader) ([]Event, error) { return events.Decode(r) }

// Sentinel errors.
var (
	ErrNotFound = engine.ErrNotFound
	ErrClosed   = engine.ErrClosed
)

// Throttle modes (Options.ThrottleMode).
const (
	ThrottleNone       = throttle.ModeNone
	ThrottleAlgorithm1 = throttle.ModeAlgorithm1
	ThrottleTwoStage   = throttle.ModeTwoStage
)

// FS is the filesystem abstraction databases run on.
type FS = vfs.FS

// MemFS is the in-memory filesystem charged to a simulated device.
type MemFS = vfs.MemFS

// Device is a simulated storage device.
type Device = storage.Device

// DeviceProfile describes a device's performance characteristics.
type DeviceProfile = storage.Profile

// Clock abstracts time; SimKernel is the virtual-time implementation.
type (
	Clock     = clock.Clock
	SimKernel = sim.Kernel
)

// CostModel charges virtual CPU time under simulation.
type CostModel = costmodel.Model

// Device profiles calibrated against the paper's three SSDs plus NVM.
var (
	SATAFlash = storage.SATAFlash
	PCIeFlash = storage.PCIeFlash
	XPoint    = storage.XPoint
	NVM       = storage.NVM
)

// Open opens (creating if necessary) a database with opts.
func Open(opts Options) (*DB, error) { return engine.Open(opts) }

// DefaultOptions returns RocksDB-like defaults on fs (see
// engine.DefaultOptions).
func DefaultOptions(fs FS) Options { return engine.DefaultOptions(fs) }

// OpenPath opens a durable database in dir on the local filesystem
// with default options and the real clock.
func OpenPath(dir string) (*DB, error) {
	fs, err := vfs.NewOS(dir)
	if err != nil {
		return nil, err
	}
	return Open(DefaultOptions(fs))
}

// ShardedDB partitions the keyspace by range across independent
// engine instances that share one block cache, one background worker
// pool, one write controller and one event stream, with cross-shard
// atomic batches via two-phase commit. A batch's commit record is a key
// in one of its shards, so each shard's WAL is the store's only durable
// log. See internal/shardeddb.
type ShardedDB = shardeddb.DB

// ShardedOptions configures OpenSharded.
type ShardedOptions = shardeddb.Options

// ShardedIter iterates the whole sharded keyspace in key order.
type ShardedIter = shardeddb.Iter

// ShardedSnapshot pins a per-shard point-in-time view vector.
type ShardedSnapshot = shardeddb.Snapshot

// ErrReservedKey rejects user keys in the sharded store's internal
// 0x00-prefixed namespace.
var ErrReservedKey = shardeddb.ErrReservedKey

// OpenSharded opens (creating if necessary) a sharded store.
func OpenSharded(opts ShardedOptions) (*ShardedDB, error) { return shardeddb.Open(opts) }

// OpenShardedPath opens a durable sharded store with n shards in dir
// on the local filesystem, with default engine options and the real
// clock.
func OpenShardedPath(dir string, n int) (*ShardedDB, error) {
	fs, err := vfs.NewOS(dir)
	if err != nil {
		return nil, err
	}
	return shardeddb.Open(shardeddb.Options{Shards: n, Engine: DefaultOptions(fs)})
}

// Simulation bundles the pieces of a virtual-time experiment: drive
// all activity from Kernel.Run, and read device counters from Device.
// Its fields are Kernel, Device, FS, WALDevice, WALFS and Options (the
// DB options pre-wired to the clock, FS and calibrated cost model;
// adjust and pass to Open inside Run). WithWALDevice places the WAL on
// a separate simulated device (case study C's NVM logging).
type Simulation = simenv.Env

// NewSimulation builds a simulated environment on the given device
// profile. Open the DB and run the workload inside sim.Kernel.Run.
func NewSimulation(profile DeviceProfile) *Simulation { return simenv.New(profile) }

// NewSimulationNull returns an environment on a zero-latency in-memory
// device with the real clock: the store as plain Go code, useful for
// software-only benchmarks and tests. Kernel is nil; just call Open
// with s.Options directly.
func NewSimulationNull() *Simulation {
	dev := storage.New(clock.Real{}, storage.Null())
	fs := vfs.NewMem(dev)
	return &Simulation{Device: dev, FS: fs, Options: DefaultOptions(fs)}
}
