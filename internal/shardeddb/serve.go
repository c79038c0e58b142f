package shardeddb

import (
	"fmt"
	"strings"

	"xpointdb/internal/engine"
)

// healthz is the /healthz answer: ok only when every shard is healthy.
func (db *DB) healthz() (bool, string) {
	h := db.Health()
	return h == engine.Healthy, fmt.Sprintf("%v (%d shards)", h, len(db.shards))
}

// ObsAddr returns the bound ops-server address ("" when disabled).
func (db *DB) ObsAddr() string { return db.shared.Plane.Addr() }

// SyncEvents blocks until every event emitted so far reached the
// configured listener (async sink only; no-op otherwise).
func (db *DB) SyncEvents() { db.shared.Plane.Sync() }

// StatsReport renders the combined human-readable report: one
// store-wide metrics section over every shard (engine.WriteStats: sums
// with per-shard brackets, the shared resources once), the cross-shard
// transaction line (the xpointdb_sharded_txn_* families), then each
// shard's health, LSM shape and per-level table.
func (db *DB) StatsReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sharded store: %d shards ==\n", len(db.shards))
	engine.WriteStats(&b, db.shards, db.shared)
	b.WriteString("cross-shard txns:")
	for _, f := range shardedFamilies {
		if name, ok := strings.CutPrefix(f.name, "xpointdb_sharded_txn_"); ok {
			fmt.Fprintf(&b, " %s=%v", strings.TrimSuffix(name, "_total"), f.value(db))
		}
	}
	b.WriteString("\n")
	for i, s := range db.shards {
		start, end := db.ShardRange(i)
		fmt.Fprintf(&b, "\n-- shard %d [%q, %q) --\n", i, start, end)
		b.WriteString(s.StateReport())
	}
	return b.String()
}
