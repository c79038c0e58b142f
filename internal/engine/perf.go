package engine

import (
	"fmt"
	"strings"
	"time"
)

// PerfContext is a per-operation latency breakdown — the equivalent of
// RocksDB's perf_context, scoped to the stages the paper attributes
// time to. Pass one to GetWithPerf / ApplyWithPerf to have the engine
// fill it in; fields accumulate across operations until Reset, so one
// context can profile a whole loop.
//
// The write stages partition Apply's end-to-end latency: an operation
// spends its time paying the Algorithm 1 throttle delay, waiting in
// the write queue, making room (memtable switches and stop stalls),
// appending and syncing the WAL, and inserting into the memtable. A
// batch-group follower's WAL work is done by its leader, so for
// followers the leader's WAL time shows up as WriteQueueWait — the
// stage sums still cover the end-to-end latency.
//
// The read stages partition Get: probing the mutable and immutable
// memtables, then Level-0 SSTs (every overlapping file — the paper's
// Finding #2 read amplification), then one file per deeper level.
// BlockReadTime isolates the portion of SST probe time spent on
// probes that missed the block cache.
type PerfContext struct {
	// Write path.
	ThrottleDelay  time.Duration // Algorithm 1 injected delay before queueing
	WriteQueueWait time.Duration // waiting in the write queue (followers: incl. leader's WAL work)
	WriteStall     time.Duration // leader's make-room time: stop stalls, memtable switch
	WALAppend      time.Duration // leader's group WAL append
	WALSync        time.Duration // leader's group WAL fsync
	MemtableInsert time.Duration // this writer's memtable application

	// Read path.
	MemtableProbe  time.Duration // mutable memtable search
	ImmutableProbe time.Duration // immutable memtable searches
	L0ProbeTime    time.Duration // Level-0 SST probes (incl. table-cache open)
	DeepProbeTime  time.Duration // Level-1+ SST probes
	BlockReadTime  time.Duration // portion of probe time on block-cache misses

	// Read-path counters.
	L0Probes         int // Level-0 SSTs probed
	DeepProbes       int // Level-1+ SSTs probed
	BloomChecks      int // Bloom filters consulted
	BloomSkips       int // probes short-circuited by a Bloom filter
	BlockCacheHits   int
	BlockCacheMisses int
}

// WriteStages returns the sum of the write-path stage durations.
func (pc *PerfContext) WriteStages() time.Duration { return pc.sum(writeStages) }

// ReadStages returns the sum of the read-path stage durations.
// BlockReadTime is not added: it is a sub-portion of the probe stages.
func (pc *PerfContext) ReadStages() time.Duration { return pc.sum(readStages) }

func (pc *PerfContext) sum(stages []stageDef) (d time.Duration) {
	for _, st := range stages {
		if !st.nested {
			d += st.dur(pc)
		}
	}
	return d
}

// Reset zeroes every field.
func (pc *PerfContext) Reset() { *pc = PerfContext{} }

// diff returns the per-field difference pc − before (the cost of the
// operations performed between the two states).
func (pc *PerfContext) diff(before *PerfContext) PerfContext {
	return PerfContext{
		ThrottleDelay:  pc.ThrottleDelay - before.ThrottleDelay,
		WriteQueueWait: pc.WriteQueueWait - before.WriteQueueWait,
		WriteStall:     pc.WriteStall - before.WriteStall,
		WALAppend:      pc.WALAppend - before.WALAppend,
		WALSync:        pc.WALSync - before.WALSync,
		MemtableInsert: pc.MemtableInsert - before.MemtableInsert,

		MemtableProbe:  pc.MemtableProbe - before.MemtableProbe,
		ImmutableProbe: pc.ImmutableProbe - before.ImmutableProbe,
		L0ProbeTime:    pc.L0ProbeTime - before.L0ProbeTime,
		DeepProbeTime:  pc.DeepProbeTime - before.DeepProbeTime,
		BlockReadTime:  pc.BlockReadTime - before.BlockReadTime,

		L0Probes:         pc.L0Probes - before.L0Probes,
		DeepProbes:       pc.DeepProbes - before.DeepProbes,
		BloomChecks:      pc.BloomChecks - before.BloomChecks,
		BloomSkips:       pc.BloomSkips - before.BloomSkips,
		BlockCacheHits:   pc.BlockCacheHits - before.BlockCacheHits,
		BlockCacheMisses: pc.BlockCacheMisses - before.BlockCacheMisses,
	}
}

// String renders the non-zero stages.
func (pc *PerfContext) String() string {
	var b strings.Builder
	for _, st := range allStages {
		if d := st.dur(pc); d > 0 {
			fmt.Fprintf(&b, " %s=%v", st.name, d)
		}
	}
	if pc.BloomChecks > 0 || pc.L0Probes > 0 || pc.DeepProbes > 0 {
		fmt.Fprintf(&b, " probes[l0=%d deep=%d bloom=%d/%d skipped]",
			pc.L0Probes, pc.DeepProbes, pc.BloomSkips, pc.BloomChecks)
	}
	if pc.BlockCacheHits > 0 || pc.BlockCacheMisses > 0 {
		fmt.Fprintf(&b, " cache[hit=%d miss=%d]", pc.BlockCacheHits, pc.BlockCacheMisses)
	}
	if b.Len() == 0 {
		return "perf{}"
	}
	return "perf{" + strings.TrimSpace(b.String()) + "}"
}
