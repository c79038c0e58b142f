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

// StatsReport renders the combined human-readable report: the shared
// resources once, then each shard's engine report without them.
func (db *DB) StatsReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sharded store: %d shards ==\n", len(db.shards))
	b.WriteString(db.shared.StatsReport())
	for i := range db.shards {
		w, g := db.shared.Pool.TagStats(i)
		fmt.Fprintf(&b, "bg pool shard %d: waiting=%d grants=%d\n", i, w, g)
	}
	if p := db.shared.Pacer; p != nil {
		fmt.Fprintf(&b, "compaction pacer: %dB/s shared\n", p.Rate())
	}
	cross, aborts, rf, ab := db.TxnStats()
	fmt.Fprintf(&b, "cross-shard txns: committed=%d aborted=%d rolled_forward=%d aborted_at_open=%d pending=%d\n",
		cross, aborts, rf, ab, db.pendingTxns())
	for i, s := range db.shards {
		start, end := db.ShardRange(i)
		fmt.Fprintf(&b, "\n-- shard %d [%q, %q) --\n", i, start, end)
		b.WriteString(s.StatsReport())
	}
	return b.String()
}

func (db *DB) pendingTxns() int {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	return len(db.txnPending)
}
