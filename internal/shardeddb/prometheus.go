package shardeddb

import (
	"fmt"
	"io"

	"xpointdb/internal/engine"
	"xpointdb/internal/obs"
)

// shardedFamily declares one fact only a sharded store has. Everything
// an engine or a shared resource owns is declared in the engine's
// table and exported by engine.WriteMetrics.
type shardedFamily struct {
	name, help, typ string
	value           func(*DB) float64
}

var shardedFamilies = []shardedFamily{
	{"xpointdb_sharded_shards", "Number of range shards in the store.", "gauge",
		func(db *DB) float64 { return float64(len(db.shards)) }},
	{"xpointdb_sharded_txn_committed_total", "Cross-shard atomic batches committed.", "counter",
		func(db *DB) float64 { return float64(db.crossBatches.Load()) }},
	{"xpointdb_sharded_txn_aborted_total", "Cross-shard batches aborted before the commit point.", "counter",
		func(db *DB) float64 { return float64(db.txnAborts.Load()) }},
	{"xpointdb_sharded_txn_phase2_failures_total", "Committed batches whose phase 2 hit an error (resolved at reopen).", "counter",
		func(db *DB) float64 { return float64(db.txnP2Failures.Load()) }},
	{"xpointdb_sharded_txn_rolled_forward_total", "Committed batches completed from prepare records at recovery.", "counter",
		func(db *DB) float64 { return float64(db.rolledForward.Load()) }},
	{"xpointdb_sharded_txn_aborted_at_open_total", "Uncommitted prepare records discarded at recovery.", "counter",
		func(db *DB) float64 { return float64(db.abortedAtOpen.Load()) }},
	{"xpointdb_sharded_txn_log_rotations_total", "Coordinator transaction-log rotations.", "counter",
		func(db *DB) float64 { return float64(db.txnLogRotation.Load()) }},
	{"xpointdb_sharded_txn_pending", "Committed batches whose phase 2 has not finished.", "gauge",
		func(db *DB) float64 { return float64(db.pendingTxns()) }},
}

// WritePrometheus writes the sharded store's metrics in the Prometheus
// text exposition format: the sharded-only families, then the engine's
// own exporter over every shard — each engine family once, one sample
// or histogram series per shard under a shard label and the bare
// store's family name, and each shared resource (block cache, pool,
// write controller, space budget, event hub) once, unlabelled.
func (db *DB) WritePrometheus(w io.Writer) {
	pw := obs.PromWriter{W: w}
	for _, f := range shardedFamilies {
		pw.Header(f.name, f.help, f.typ)
		pw.Sample(f.name, "", f.value(db))
	}
	health, healthy := db.Health(), 0.0
	if health == engine.Healthy {
		healthy = 1
	}
	const healthFamily = "xpointdb_sharded_health"
	pw.Header(healthFamily, "1 when every shard is healthy; state carries the worst shard's detail.", "gauge")
	pw.Sample(healthFamily, fmt.Sprintf(`state="%s"`, health), healthy)

	engine.WriteMetrics(w, db.shards, true, db.shared)
}
