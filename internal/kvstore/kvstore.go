// Package kvstore names the seam between a key-value store and the
// programs that drive one: the method set engine.DB and shardeddb.DB
// share with identical signatures, and the one way to open either.
// dbbench and the torture driver program against it, so a run on the
// bare engine and a run on N shards are the same code.
//
// Scans are part of it: both stores return an iterator.Iterator over
// user keys. Snapshots are not yet — the two stores return different
// concrete types for them, and no program drives one through the seam.
package kvstore

import (
	"xpointdb/internal/batch"
	"xpointdb/internal/engine"
	"xpointdb/internal/iterator"
	"xpointdb/internal/shardeddb"
)

// Store is a bare engine or a range-sharded set of them.
type Store interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	Apply(b *batch.Batch, sync bool) error
	Flush() error
	// NewIter returns an iterator over the user keys of the store as
	// of the call; Close it when done. A closed store returns
	// (nil, engine.ErrClosed).
	NewIter() (iterator.Iterator, error)

	// Health is the worst health across engines; BackgroundError the
	// first latched error; Resume the operator's manual recovery,
	// tried on every engine.
	Health() engine.Health
	BackgroundError() error
	Resume() error

	StatsReport() string
	// ObsAddr is the bound address of the HTTP ops plane, "" when off.
	ObsAddr() string
	// Engines returns the engines behind the store in shard order (one
	// for a bare engine), for per-engine metrics and LSM shape.
	Engines() []*engine.DB
	// Shared returns the resources those engines have in common: block
	// cache, background pool, write controller, space budget, ops plane.
	Shared() *engine.Shared
	Close() error
}

var _, _ Store = (*engine.DB)(nil), (*shardeddb.DB)(nil)

// Open opens (creating if necessary) the store opts describes: the
// bare engine when shards <= 1, otherwise shards engines split at
// boundaries (nil means shardeddb.UniformBoundaries) sharing one block
// cache, background pool, write controller and ops plane.
func Open(opts engine.Options, shards int, boundaries [][]byte) (Store, error) {
	// Each branch checks err itself: returning a failed Open's nil
	// *DB directly would hand back a non-nil Store.
	if shards <= 1 {
		db, err := engine.Open(opts)
		if err != nil {
			return nil, err
		}
		return db, nil
	}
	db, err := shardeddb.Open(shardeddb.Options{Shards: shards, Boundaries: boundaries, Engine: opts})
	if err != nil {
		return nil, err
	}
	return db, nil
}
