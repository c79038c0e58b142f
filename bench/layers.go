package main

import (
	"slices"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
)

// values is a set of metric readings by name, each with the number of
// samples behind it.
type values map[string]reading

type reading struct {
	v float64
	n int64
}

func (vs values) set(name string, v float64, n int64) { vs[name] = reading{v, n} }

// layerSums is the per-layer totals of a run's traced repetitions.
type layerSums struct {
	perf             engine.PerfContext // every client's PerfContext, summed
	getSpan, putSpan time.Duration      // bench-timed op spans
	gets, puts       int64
	getLat, putLat   []uint32
	wall             time.Duration // traced timed phases, on the store's clock
	writers          int
	parallelism      int

	flushes, compactions, trivialMoves, svInstalls int64
	compBytesWritten, compEntries                  int64
	flushNs, compNs                                float64
	stall                                          time.Duration
	memHits, walSyncs                              int64
	thrDelay                                       time.Duration
	thrOps                                         int64
	dev                                            storage.Stats
	fs                                             fsTotals
	allocBytes, mallocs, gcPauseNs                 float64
	ops                                            int64

	// End-of-run facts a workload fills in where it has them.
	l0End, reopenMs, spaceAmp float64
}

func (l *layerSums) addCounters(a, b counters) {
	l.flushes += b.m.Flushes - a.m.Flushes
	l.compactions += b.m.Compactions - a.m.Compactions
	l.trivialMoves += b.m.TrivialMoves - a.m.TrivialMoves
	l.svInstalls += b.m.SuperVersionInstalls - a.m.SuperVersionInstalls
	l.compBytesWritten += b.m.CompactionBytesWritten - a.m.CompactionBytesWritten
	l.compEntries += b.m.CompactionEntriesMerged - a.m.CompactionEntriesMerged
	// A snapshot holds means, not sums; mean × count restores the sum.
	l.flushNs += float64(b.m.FlushMean)*float64(b.m.Flushes) - float64(a.m.FlushMean)*float64(a.m.Flushes)
	l.compNs += float64(b.m.CompactionMean)*float64(b.m.Compactions) - float64(a.m.CompactionMean)*float64(a.m.Compactions)
	l.stall += b.m.StallDelayTotal + b.m.StallStopTotal - a.m.StallDelayTotal - a.m.StallStopTotal
	l.memHits += b.m.GetHitMemtable + b.m.GetHitImmutable - a.m.GetHitMemtable - a.m.GetHitImmutable
	l.walSyncs += b.m.WALSyncs - a.m.WALSyncs
	l.thrDelay += b.thrDelay - a.thrDelay
	l.thrOps += b.thrOps - a.thrOps
	l.dev.Reads += b.dev.Reads - a.dev.Reads
	l.dev.Writes += b.dev.Writes - a.dev.Writes
	l.dev.Syncs += b.dev.Syncs - a.dev.Syncs
	l.dev.EraseStalls += b.dev.EraseStalls - a.dev.EraseStalls
	l.dev.BusyTime += b.dev.BusyTime - a.dev.BusyTime
	l.fs = l.fs.plus(b.fs, 1).plus(a.fs, -1)
	l.allocBytes += float64(b.mem.TotalAlloc - a.mem.TotalAlloc)
	l.mallocs += float64(b.mem.Mallocs - a.mem.Mallocs)
	l.gcPauseNs += float64(b.mem.PauseTotalNs - a.mem.PauseTotalNs)
}

func (l *layerSums) addClient(c *client) {
	l.ops += c.ops
	switch c.kind {
	case opGet:
		l.gets += c.ops
		l.getSpan += c.span
		l.getLat = append(l.getLat, c.lat...)
	case opPut:
		l.puts += c.ops
		l.putSpan += c.span
		l.putLat = append(l.putLat, c.lat...)
	}
	if c.pc != nil {
		perfAdd(&l.perf, c.pc, 1)
	}
}

// tail sets the p50, p99 and highest supported percentile of one op
// type's traced latencies.
func tail(vs values, op string, lat []uint32) {
	n := int64(len(lat))
	slices.Sort(lat)
	vs.set("engine."+op+"_p50_us", usec(percentile(lat, 50)), n)
	vs.set("engine."+op+"_p99_us", usec(percentile(lat, 99)), n)
	pct := highestPercentile(len(lat))
	vs.set("engine."+op+"_pmax_us", usec(percentile(lat, pct)), n)
	vs.set("engine."+op+"_pmax_pct", pct, n)
}

// perLayer turns the traced sums into the per-layer metrics. Times per
// operation are means over the operations of that type; a workload
// that issues none of a type reads 0 there.
func (l *layerSums) perLayer(vs values, simulated bool) {
	p := &l.perf
	gets, puts := float64(l.gets), float64(l.puts)
	perGet := func(d time.Duration) float64 { return usec(ratio(float64(d), gets)) }
	perPut := func(d time.Duration) float64 { return usec(ratio(float64(d), puts)) }
	wall := l.wall.Seconds()

	vs.set("engine.get_self_us", perGet(l.getSpan-p.ReadStages()), l.gets)
	vs.set("engine.put_self_us", perPut(l.putSpan-p.WriteStages()), l.puts)
	vs.set("engine.write_queue_wait_us", perPut(p.WriteQueueWait), l.puts)
	vs.set("engine.write_stall_s", l.stall.Seconds(), l.puts)
	vs.set("engine.stall_frac", ratio(l.stall.Seconds(), wall*float64(l.writers)), l.puts)
	vs.set("engine.flush_count", float64(l.flushes), l.flushes)
	vs.set("engine.flush_mean_ms", ratio(l.flushNs, float64(l.flushes))/1e6, l.flushes)
	vs.set("engine.compaction_count", float64(l.compactions), l.compactions)
	vs.set("engine.compaction_bytes_written", float64(l.compBytesWritten), l.compactions)
	vs.set("engine.compaction_entries_merged", float64(l.compEntries), l.compactions)
	vs.set("engine.compaction_mean_ms", ratio(l.compNs, float64(l.compactions))/1e6, l.compactions)
	vs.set("engine.trivial_moves", float64(l.trivialMoves), l.trivialMoves)
	vs.set("engine.tables_probed_per_get", ratio(float64(p.L0Probes+p.DeepProbes), gets), l.gets)
	vs.set("engine.l0_files_end", l.l0End, 1)
	vs.set("engine.superversion_installs", float64(l.svInstalls), l.svInstalls)
	vs.set("engine.alloc_b_per_op", ratio(l.allocBytes, float64(l.ops)), l.ops)
	vs.set("engine.allocs_per_op", ratio(l.mallocs, float64(l.ops)), l.ops)
	vs.set("engine.gc_pause_ms", l.gcPauseNs/1e6, l.ops)
	vs.set("engine.gets_per_s", ratio(gets, wall), l.gets)
	vs.set("engine.puts_per_s", ratio(puts, wall), l.puts)
	tail(vs, "get", l.getLat)
	tail(vs, "put", l.putLat)
	vs.set("engine.reopen_ms", l.reopenMs, 1)
	vs.set("engine.space_amp", l.spaceAmp, 1)

	vs.set("memtable.insert_us", perPut(p.MemtableInsert), l.puts)
	vs.set("memtable.probe_us", perGet(p.MemtableProbe+p.ImmutableProbe), l.gets)
	vs.set("memtable.hit_frac", ratio(float64(l.memHits), gets), l.gets)

	vs.set("wal.append_us", perPut(p.WALAppend), l.puts)
	vs.set("wal.sync_us", perPut(p.WALSync), l.puts)
	vs.set("wal.syncs", float64(l.walSyncs), l.walSyncs)
	walW := l.fs.ctr[classWAL][fsWrite]
	vs.set("wal.bytes", float64(walW.bytes), walW.calls)

	vs.set("bloom.checks_per_get", ratio(float64(p.BloomChecks), gets), l.gets)
	vs.set("bloom.skip_frac", ratio(float64(p.BloomSkips), float64(p.BloomChecks)), int64(p.BloomChecks))

	lookups := int64(p.BlockCacheHits + p.BlockCacheMisses)
	vs.set("cache.hit_frac", ratio(float64(p.BlockCacheHits), float64(lookups)), lookups)

	vs.set("sstable.l0_probe_us", perGet(p.L0ProbeTime), l.gets)
	vs.set("sstable.deep_probe_us", perGet(p.DeepProbeTime), l.gets)
	vs.set("sstable.block_read_us_per_miss", usec(ratio(float64(p.BlockReadTime), float64(p.BlockCacheMisses))), int64(p.BlockCacheMisses))

	vs.set("throttle.delay_s", l.thrDelay.Seconds(), l.thrOps)
	vs.set("throttle.delayed_ops", float64(l.thrOps), l.thrOps)

	sstR, sstW := l.fs.ctr[classSST][fsRead], l.fs.ctr[classSST][fsWrite]
	vs.set("vfs.sst_read_calls", float64(sstR.calls), sstR.calls)
	vs.set("vfs.sst_reads_per_get", ratio(float64(sstR.calls), gets), l.gets)
	vs.set("vfs.sst_read_bytes", float64(sstR.bytes), sstR.calls)
	vs.set("vfs.sst_read_s", float64(sstR.ns)/1e9, sstR.calls)
	vs.set("vfs.sst_write_bytes", float64(sstW.bytes), sstW.calls)
	vs.set("vfs.sst_write_s", float64(sstW.ns)/1e9, sstW.calls)
	vs.set("vfs.wal_write_calls", float64(walW.calls), walW.calls)
	vs.set("vfs.wal_write_s", float64(walW.ns)/1e9, walW.calls)
	var syncCalls, syncNs int64
	for c := range l.fs.ctr {
		syncCalls += l.fs.ctr[c][fsSync].calls
		syncNs += l.fs.ctr[c][fsSync].ns
	}
	vs.set("vfs.sync_calls", float64(syncCalls), syncCalls)
	vs.set("vfs.sync_s", float64(syncNs)/1e9, syncCalls)
	vs.set("vfs.files_created", float64(l.fs.created), l.fs.created)

	vs.set("storage.reads", float64(l.dev.Reads), l.dev.Reads)
	vs.set("storage.writes", float64(l.dev.Writes), l.dev.Writes)
	vs.set("storage.syncs", float64(l.dev.Syncs), l.dev.Syncs)
	vs.set("storage.erase_stalls", float64(l.dev.EraseStalls), l.dev.Writes)
	vs.set("storage.busy_frac", ratio(l.dev.BusyTime.Seconds(), wall*float64(l.parallelism)), l.dev.Reads+l.dev.Writes)
	if simulated {
		// The paper's central quantity: the share of a modelled Get that
		// is not the device serving block reads.
		vs.set("costmodel.software_share_get", 1-ratio(float64(p.BlockReadTime), float64(l.getSpan)), l.gets)
	}
}
