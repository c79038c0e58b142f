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
// transaction line, then each shard's health, LSM shape and per-level
// table.
func (db *DB) StatsReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sharded store: %d shards ==\n", len(db.shards))
	engine.WriteStats(&b, db.shards, db.shared)
	cross, aborts, rf, ab := db.TxnStats()
	fmt.Fprintf(&b, "cross-shard txns: committed=%d aborted=%d rolled_forward=%d aborted_at_open=%d pending=%d\n",
		cross, aborts, rf, ab, db.pendingTxns())
	for i, s := range db.shards {
		start, end := db.ShardRange(i)
		fmt.Fprintf(&b, "\n-- shard %d [%q, %q) --\n", i, start, end)
		b.WriteString(s.StateReport())
	}
	return b.String()
}

func (db *DB) pendingTxns() int {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	return len(db.txnPending)
}
