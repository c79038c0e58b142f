package shardeddb

import (
	"fmt"
	"strings"

	"xpointdb/internal/engine"
	"xpointdb/internal/events"
	"xpointdb/internal/throttle"
)

// shardListener returns the tagging forwarder installed as shard i's
// EventListener: it stamps Shard (1-based) and forwards to the shared
// stream. Nil when no stream is configured, so emission stays free.
func (db *DB) shardListener(i int) events.Listener {
	if db.ev == nil {
		return nil
	}
	shard := i + 1
	return events.Func(func(e events.Event) {
		e.Shard = shard
		db.ev.Emit(e)
	})
}

// emitRateChange surfaces the shared controller's Algorithm 1 steps.
// Shard is left 0: the rate is a store-wide property.
func (db *DB) emitRateChange(oldRate, newRate float64, behind bool) {
	if db.ev == nil {
		return
	}
	factor := throttle.Inc
	if behind {
		factor = throttle.Dec
	}
	db.ev.Emit(events.Event{
		TS:   db.clk.Now(),
		Kind: events.KindRateChange,
		Rate: &events.Rate{OldRate: oldRate, NewRate: newRate, Factor: factor, Behind: behind},
	})
}

// healthz is the /healthz answer: ok only when every shard is healthy.
func (db *DB) healthz() (bool, string) {
	h := db.Health()
	return h == engine.Healthy, fmt.Sprintf("%v (%d shards)", h, len(db.shards))
}

// ObsAddr returns the bound ops-server address ("" when disabled).
func (db *DB) ObsAddr() string { return db.plane.Addr() }

// SyncEvents blocks until every event emitted so far reached the
// configured listener (async sink only; no-op otherwise).
func (db *DB) SyncEvents() { db.plane.Sync() }

// StatsReport renders the combined human-readable report: shared
// resources first, then each shard's full engine report.
func (db *DB) StatsReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sharded store: %d shards ==\n", len(db.shards))
	if db.blocks != nil {
		fmt.Fprintf(&b, "shared block cache: %s\n", db.blocks.String())
	}
	busy, waiting, grants := db.pool.Stats()
	fmt.Fprintf(&b, "bg pool: slots=%d busy=%d waiting=%d grants=%d\n",
		db.pool.Size(), busy, waiting, grants)
	for i := range db.shards {
		w, g := db.pool.TagStats(i)
		fmt.Fprintf(&b, "bg pool shard %d: waiting=%d grants=%d\n", i, w, g)
	}
	if db.pacer != nil {
		fmt.Fprintf(&b, "compaction pacer: %dB/s shared\n", db.pacer.Rate())
	}
	cross, aborts, rf, ab := db.TxnStats()
	fmt.Fprintf(&b, "cross-shard txns: committed=%d aborted=%d rolled_forward=%d aborted_at_open=%d pending=%d\n",
		cross, aborts, rf, ab, db.pendingTxns())
	total, delayedOps, adjustments := db.controller.Stats()
	fmt.Fprintf(&b, "write controller: state=%v rate=%.0fB/s delay_total=%v delayed_ops=%d adjustments=%d\n",
		db.controller.CurrentState(), db.controller.Rate(), total, delayedOps, adjustments)
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
