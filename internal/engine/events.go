package engine

import (
	"time"

	"xpointdb/internal/events"
	"xpointdb/internal/throttle"
)

// Event emission. Every helper is a no-op when the DB was opened
// without an EventListener; the listener must not block on the engine
// clock (emitters sometimes hold db.mu).

func (db *DB) emitFlushBegin(reason string, walNum uint64, bytes int64, immutables int) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{
		TS:   db.clk.Now(),
		Kind: events.KindFlushBegin,
		Flush: &events.Flush{
			Reason:     reason,
			WALNum:     walNum,
			Bytes:      bytes,
			Immutables: immutables,
		},
	})
}

func (db *DB) emitFlushEnd(fm flushedMem, outputFile uint64, bytes int64, l0Files int, d time.Duration, err error) {
	if db.ev == nil {
		return
	}
	f := &events.Flush{
		Reason:     fm.reason,
		WALNum:     fm.walNum,
		OutputFile: outputFile,
		Bytes:      bytes,
		L0Files:    l0Files,
		DurationUS: d.Microseconds(),
	}
	if err != nil {
		f.Error = err.Error()
	}
	db.ev.Emit(events.Event{TS: db.clk.Now(), Kind: events.KindFlushEnd, Flush: f})
}

func (db *DB) emitCompactionBegin(c *compaction, inputBytes int64) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{
		TS:   db.clk.Now(),
		Kind: events.KindCompactionBegin,
		Compaction: &events.Compaction{
			Level:        c.level,
			OutputLevel:  c.outputLevel,
			Score:        c.score,
			InputFiles:   len(c.inputs),
			OverlapFiles: len(c.overlaps),
			BytesRead:    inputBytes,
		},
	})
}

func (db *DB) emitCompactionEnd(c *compaction, stats compactionStats, d time.Duration, err error) {
	if db.ev == nil {
		return
	}
	ce := &events.Compaction{
		Level:          c.level,
		OutputLevel:    c.outputLevel,
		Score:          c.score,
		InputFiles:     len(c.inputs),
		OverlapFiles:   len(c.overlaps),
		OutputFiles:    stats.outputs,
		BytesRead:      stats.read,
		BytesWritten:   stats.written,
		Entries:        stats.entries,
		Subcompactions: stats.subs,
		TrivialMove:    c.trivialMove,
		DurationUS:     d.Microseconds(),
	}
	if err != nil {
		ce.Error = err.Error()
	}
	db.ev.Emit(events.Event{TS: db.clk.Now(), Kind: events.KindCompactionEnd, Compaction: ce})
}

// emitCompactionDeferred records a compaction the space budget deferred
// (the job retries once reclamation or a budget raise frees headroom).
// projected is the reserved-headroom estimate that did not fit.
func (db *DB) emitCompactionDeferred(c *compaction, projected int64) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{
		TS:   db.clk.Now(),
		Kind: events.KindCompactionDeferred,
		Compaction: &events.Compaction{
			Level:        c.level,
			OutputLevel:  c.outputLevel,
			Score:        c.score,
			InputFiles:   len(c.inputs),
			OverlapFiles: len(c.overlaps),
			BytesRead:    projected,
		},
	})
}

// emitStallChangeLocked records a stall-condition transition with its
// cause. Called with db.mu held (the transition and its inputs must be
// captured atomically); the listener only appends to its own buffer.
func (db *DB) emitStallChangeLocked(from, to throttle.State, l0Files int) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{
		TS:   db.clk.Now(),
		Kind: events.KindStallChange,
		Stall: &events.Stall{
			From:       from.String(),
			To:         to.String(),
			L0Files:    l0Files,
			Immutables: len(db.imms),
			Rate:       db.controller.Rate(),
		},
	})
}

func (db *DB) emitWALSync(walNum uint64, bytes int64, d time.Duration, err error) {
	if db.ev == nil {
		return
	}
	ws := &events.WALSync{WALNum: walNum, Bytes: bytes, DurationUS: d.Microseconds()}
	if err != nil {
		ws.Error = err.Error()
	}
	db.ev.Emit(events.Event{TS: db.clk.Now(), Kind: events.KindWALSync, WALSync: ws})
}

// emitRecovery records one recovery lifecycle moment (begin, attempt,
// success, giveup); see errorhandler.go/recovery.go for the emitters'
// call sites.
func (db *DB) emitRecovery(kind events.Kind, rec *events.Recovery) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{TS: db.clk.Now(), Kind: kind, Recovery: rec})
}

// emitSuperVersionInstall records one read-path bundle swap. Callers
// may hold db.mu; the listener only appends to its own buffer.
func (db *DB) emitSuperVersionInstall(reason string, immutables, l0Files int) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{
		TS:   db.clk.Now(),
		Kind: events.KindSuperVersionInstall,
		SuperVersion: &events.SuperVersion{
			Reason:     reason,
			Immutables: immutables,
			L0Files:    l0Files,
		},
	})
}

// emitScrub records one scrubber pass boundary (begin/complete); see
// scrub.go for the worker.
func (db *DB) emitScrub(kind events.Kind, s *events.Scrub) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{TS: db.clk.Now(), Kind: kind, Scrub: s})
}

// emitIntegrity records one corruption-handling step on a file: scrub
// detection, quarantine, repair, or data loss (repair.go, scrub.go).
func (db *DB) emitIntegrity(kind events.Kind, in *events.Integrity) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{TS: db.clk.Now(), Kind: kind, Integrity: in})
}

// emitSlowOp promotes one operation whose end-to-end latency met
// Options.SlowOpThreshold into a slow_op trace event, carrying its
// PerfContext stage breakdown d (a threshold makes every op collect
// one). Called after the operation completed, no locks held.
func (db *DB) emitSlowOp(op string, lat time.Duration, batch int, d *PerfContext) {
	db.metrics.SlowOps.Add(1)
	if db.ev == nil {
		return
	}
	so := &events.SlowOp{
		Op:          op,
		LatencyUS:   lat.Microseconds(),
		ThresholdUS: db.opts.SlowOpThreshold.Microseconds(),
		Batch:       batch,
	}
	for _, st := range allStages {
		if v := st.dur(d); v > 0 {
			if so.Stages == nil {
				so.Stages = make(map[string]int64, 4)
			}
			so.Stages[st.name] = v.Microseconds()
		}
	}
	db.ev.Emit(events.Event{TS: db.clk.Now(), Kind: events.KindSlowOp, SlowOp: so})
}

// emitObsoleteGC records one zombie sweep: SSTs whose last version
// reference died and were deleted from disk.
func (db *DB) emitObsoleteGC(files []uint64) {
	if db.ev == nil {
		return
	}
	db.ev.Emit(events.Event{
		TS:   db.clk.Now(),
		Kind: events.KindObsoleteGC,
		ObsoleteGC: &events.ObsoleteGC{
			Count: len(files),
			Files: append([]uint64(nil), files...),
		},
	})
}
