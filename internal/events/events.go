// Package events is the engine's structured event log — the RocksDB
// LOG equivalent, machine-readable. Every significant background and
// control-plane episode (flush, compaction, stall-condition change,
// Algorithm 1 rate step, WAL sync) is emitted as one Event to a
// Listener the DB was opened with.
//
// The paper's whole method is this kind of visibility: its findings
// (throttling stalls, Level-0 probe overhead, WAL sync cost) all came
// from instrumenting RocksDB internals. The event stream makes the
// same diagnosis possible here: a benchmark that regresses leaves a
// JSON-lines trail saying which stall state engaged, at what Level-0
// count, and how the delayed_write_rate stepped down and back up.
//
// Events carry timestamps from the engine clock, so a simulated-time
// run produces a deterministic stream that can be archived next to its
// BENCH_*.json results and diffed across commits.
package events

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind discriminates event payloads.
type Kind string

// The event kinds the engine emits.
const (
	KindFlushBegin      Kind = "flush_begin"
	KindFlushEnd        Kind = "flush_end"
	KindCompactionBegin Kind = "compaction_begin"
	KindCompactionEnd   Kind = "compaction_end"
	// KindCompactionDeferred marks a compaction the space budget pushed
	// back (projected output over MaxAllowedSpace); the job retries once
	// reclamation or a budget raise frees headroom.
	KindCompactionDeferred Kind = "compaction_deferred"
	KindStallChange        Kind = "stall_change"
	KindRateChange         Kind = "rate_change"
	KindWALSync            Kind = "wal_sync"
	KindBackgroundError    Kind = "background_error"
	KindRecoveryBegin      Kind = "error_recovery_begin"
	KindRecoveryAttempt    Kind = "error_recovery_attempt"
	KindRecoverySuccess    Kind = "error_recovery_success"
	KindRecoveryGiveup     Kind = "error_recovery_giveup"

	KindSuperVersionInstall Kind = "superversion_install"
	KindObsoleteGC          Kind = "obsolete_gc"

	KindScrubBegin      Kind = "scrub_begin"
	KindScrubCorruption Kind = "scrub_corruption"
	KindScrubComplete   Kind = "scrub_complete"
	KindQuarantine      Kind = "corruption_quarantine"
	KindRepair          Kind = "corruption_repair"
	KindDataLoss        Kind = "data_loss"

	KindSlowOp Kind = "slow_op"
)

// Event is the envelope written as one JSON line. Exactly one payload
// pointer is non-nil, matching Kind.
type Event struct {
	// Seq is a strictly increasing sequence number assigned by the
	// sink (not the emitter), so the written stream is totally ordered
	// even under concurrent emission.
	Seq uint64 `json:"seq"`
	// TS is the engine-clock timestamp (virtual time under the
	// simulation kernel, so streams are deterministic).
	TS   time.Time `json:"ts"`
	Kind Kind      `json:"event"`
	// Shard attributes the event to one shard of a sharded store
	// (1-based shard number; 0 = unsharded engine).
	Shard int `json:"shard,omitempty"`

	Flush      *Flush      `json:"flush,omitempty"`
	Compaction *Compaction `json:"compaction,omitempty"`
	Stall      *Stall      `json:"stall,omitempty"`
	Rate       *Rate       `json:"rate,omitempty"`
	WALSync    *WALSync    `json:"wal_sync,omitempty"`
	BGError    *BGError    `json:"background_error,omitempty"`
	Recovery   *Recovery   `json:"recovery,omitempty"`

	SuperVersion *SuperVersion `json:"superversion,omitempty"`
	ObsoleteGC   *ObsoleteGC   `json:"obsolete_gc,omitempty"`

	Scrub     *Scrub     `json:"scrub,omitempty"`
	Integrity *Integrity `json:"integrity,omitempty"`

	SlowOp *SlowOp `json:"slow_op,omitempty"`
}

// Flush describes a memtable flush (begin and end share the struct;
// end fills in the output and duration fields).
type Flush struct {
	// Reason is what triggered the rotation that queued this
	// memtable: "memtable-full", "manual", or "recovery".
	Reason string `json:"reason,omitempty"`
	// WALNum is the log file covering the flushed memtable.
	WALNum uint64 `json:"wal,omitempty"`
	// Immutables is the queue depth when the flush started.
	Immutables int `json:"immutables,omitempty"`
	// Bytes is the memtable size (begin) / output SST size (end).
	Bytes int64 `json:"bytes,omitempty"`
	// OutputFile is the Level-0 SST file number produced.
	OutputFile uint64 `json:"output,omitempty"`
	// L0Files is the Level-0 file count after the flush committed.
	L0Files int `json:"l0_files,omitempty"`
	// DurationUS is the flush wall (or virtual) time in microseconds.
	DurationUS int64  `json:"duration_us,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Compaction describes one compaction (begin/end pair).
type Compaction struct {
	Level       int `json:"level"`
	OutputLevel int `json:"output_level"`
	// Score is the pick-time urgency: L0 file count over the trigger
	// for Level 0, level bytes over target for deeper levels.
	Score        float64 `json:"score,omitempty"`
	InputFiles   int     `json:"input_files,omitempty"`
	OverlapFiles int     `json:"overlap_files,omitempty"`
	OutputFiles  int     `json:"output_files,omitempty"`
	BytesRead    int64   `json:"bytes_read,omitempty"`
	BytesWritten int64   `json:"bytes_written,omitempty"`
	Entries      int64   `json:"entries,omitempty"`
	// Subcompactions is how many disjoint key-range merge loops the job
	// split into (1 = unsplit; 0 for a trivial move).
	Subcompactions int `json:"subcompactions,omitempty"`
	// TrivialMove marks a job executed as a pure manifest edit: the
	// inputs moved to the output level with zero data I/O.
	TrivialMove bool   `json:"trivial_move,omitempty"`
	DurationUS  int64  `json:"duration_us,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Stall records a stall-condition transition with its cause, the
// inputs to the engine's updateStallState decision.
type Stall struct {
	From string `json:"from"`
	To   string `json:"to"`
	// L0Files and Immutables are the pressure sources at the moment
	// of the transition.
	L0Files    int `json:"l0_files"`
	Immutables int `json:"immutables"`
	// Rate is the controller's delayed_write_rate (bytes/s) at the
	// transition.
	Rate float64 `json:"delayed_write_rate"`
}

// Rate records one Algorithm 1 multiplicative rate step.
type Rate struct {
	OldRate float64 `json:"old_rate"`
	NewRate float64 `json:"new_rate"`
	// Factor is the requested multiplier: Dec (0.8) when compaction
	// is behind, Inc (1.25) otherwise. NewRate may differ from
	// OldRate×Factor at the min/max clamps.
	Factor float64 `json:"factor"`
	Behind bool    `json:"behind"`
}

// WALSync records one write-ahead-log fsync.
type WALSync struct {
	WALNum uint64 `json:"wal"`
	// Bytes is the data made durable by this sync (appended since the
	// previous sync).
	Bytes      int64  `json:"bytes"`
	DurationUS int64  `json:"duration_us"`
	Error      string `json:"error,omitempty"`
}

// BGError records the engine latching a background error: a WAL or
// MANIFEST write/sync failure after which the DB refuses new writes
// instead of acknowledging data it can no longer promise is durable.
type BGError struct {
	// Op names the failed path: wal-append, wal-sync,
	// wal-rotate-sync, manifest-append, manifest-install.
	Op    string `json:"op"`
	Error string `json:"error"`
	// Severity is the classified severity the error latched at
	// (soft, hard, fatal).
	Severity string `json:"severity,omitempty"`
}

// Recovery records one episode of the engine's background-error
// recovery machinery: begin when a retryable error engages the
// recovery worker, attempt per probe (automatic or manual Resume),
// success when the latch clears, giveup when the retry budget is
// exhausted and the error escalates to fatal.
type Recovery struct {
	// Op is the failed path being recovered from (wal-sync,
	// manifest-append, ...).
	Op string `json:"op"`
	// Severity is the latched error's severity at this point.
	Severity string `json:"severity,omitempty"`
	// Attempt numbers the recovery attempts for this latch episode,
	// starting at 1.
	Attempt int `json:"attempt,omitempty"`
	// Manual marks an operator-driven db.Resume() attempt.
	Manual bool `json:"manual,omitempty"`
	// Error carries the attempt's failure (attempt/giveup events).
	Error string `json:"error,omitempty"`
	// Health is the DB health after the event (success/giveup).
	Health string `json:"health,omitempty"`
}

// SuperVersion records one read-path bundle swap: the engine published
// a new {memtable, immutables, version} snapshot for readers to pin.
type SuperVersion struct {
	// Reason names the install trigger: "open", "rotation", "flush" or
	// "version-edit".
	Reason string `json:"reason"`
	// Immutables and L0Files describe the published bundle's shape.
	Immutables int `json:"immutables"`
	L0Files    int `json:"l0_files"`
}

// ObsoleteGC records one zombie sweep: SST files whose last version
// reference died were deleted from disk.
type ObsoleteGC struct {
	Count int      `json:"count"`
	Files []uint64 `json:"files,omitempty"`
}

// Scrub describes one background-scrubber pass over the live file set
// (begin/complete pair). Complete fills in the coverage fields.
type Scrub struct {
	// Pass numbers the full cycles since open, starting at 1.
	Pass int `json:"pass"`
	// Files and Bytes are the pass's coverage: files verified and bytes
	// read (whole-file stream plus per-block re-reads).
	Files int   `json:"files,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	// Corruptions counts checksum failures this pass surfaced.
	Corruptions int `json:"corruptions,omitempty"`
}

// Integrity describes one corruption-handling step on a specific file:
// a scrub detection (scrub_corruption), the quarantine mark
// (corruption_quarantine), a successful repair compaction
// (corruption_repair), or a data-loss declaration (data_loss) with the
// affected key range.
type Integrity struct {
	// FileNum is the damaged SST.
	FileNum uint64 `json:"file"`
	// Level is the file's level at the time of the event (-1 when the
	// file is no longer in the live tree).
	Level int `json:"level"`
	// Smallest and Largest bound the file's user-key range — for a
	// data_loss event, the precise range whose data may be gone.
	Smallest string `json:"smallest,omitempty"`
	Largest  string `json:"largest,omitempty"`
	// Detail carries the underlying corruption error.
	Detail string `json:"detail,omitempty"`
}

// SlowOp is a threshold-triggered operation trace: an individual Get
// or Apply whose end-to-end latency exceeded Options.SlowOpThreshold,
// promoted out of the aggregate histograms into the event stream with
// its full PerfContext stage breakdown — the "which stage ate the
// time" answer for exactly the outlier operations an operator chases.
type SlowOp struct {
	// Op is the operation path: "get" or "write".
	Op string `json:"op"`
	// LatencyUS is the operation's end-to-end latency.
	LatencyUS int64 `json:"latency_us"`
	// ThresholdUS is the configured promotion threshold.
	ThresholdUS int64 `json:"threshold_us"`
	// Batch is the write-batch entry count (writes only).
	Batch int `json:"batch,omitempty"`
	// Stages maps stage name → time in microseconds, zero stages
	// omitted. Names match PerfContext's String rendering (throttle,
	// queue, stall, wal_append, wal_sync, mem_insert, mem_probe,
	// imm_probe, l0_probe, deep_probe, block_read).
	Stages map[string]int64 `json:"stages,omitempty"`
}

// Listener receives events. Implementations must be safe for
// concurrent use and must not block on the engine clock (they are
// called from engine paths, sometimes with engine locks held).
type Listener interface {
	Emit(e Event)
}

// Func adapts a function to Listener.
type Func func(Event)

// Emit calls f.
func (f Func) Emit(e Event) { f(e) }

// ---------------------------------------------------------------------

// EventLog is the JSON-lines sink: one event per line, in Seq order.
// Writes are buffered; call Flush (or Close) to drain. Safe for
// concurrent use.
type EventLog struct {
	mu   sync.Mutex
	bw   *bufio.Writer
	c    io.Closer // non-nil if the underlying writer should be closed
	enc  *json.Encoder
	seq  uint64
	errs []string
	err  error
}

// NewEventLog returns an event log writing JSON lines to w. If w is
// also an io.Closer, Close closes it.
func NewEventLog(w io.Writer) *EventLog {
	bw := bufio.NewWriter(w)
	l := &EventLog{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// Emit assigns the next sequence number and writes e as one line.
func (l *EventLog) Emit(e Event) {
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if err := l.enc.Encode(&e); err != nil && l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// Flush drains buffered lines to the underlying writer.
func (l *EventLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.bw.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// Err returns the first write or encode error, if any.
func (l *EventLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes and closes the underlying writer (when closable).
func (l *EventLog) Close() error {
	err := l.Flush()
	if l.c != nil {
		if cerr := l.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// ---------------------------------------------------------------------

// Buffer is an in-memory Listener for tests and examples.
type Buffer struct {
	mu  sync.Mutex
	seq uint64
	evs []Event
}

// Emit appends e with the next sequence number.
func (b *Buffer) Emit(e Event) {
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	b.evs = append(b.evs, e)
	b.mu.Unlock()
}

// Events returns a copy of everything emitted so far, in Seq order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.evs...)
}

// Len returns the number of events emitted so far.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.evs)
}

// ---------------------------------------------------------------------

// Decode reads a JSON-lines event stream back (the inverse of
// EventLog). It stops at EOF and fails on the first malformed line.
func Decode(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var evs []Event
	for i := 0; ; i++ {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return evs, nil
			}
			return evs, fmt.Errorf("events: line %d: %w", i+1, err)
		}
		evs = append(evs, e)
	}
}

// String renders e as a short human-readable line (for examples and
// xpdump, not a stable format).
func (e Event) String() string {
	ts := e.TS.Format("15:04:05.000000")
	switch e.Kind {
	case KindFlushBegin:
		return fmt.Sprintf("%s flush begin: wal=%d %dB queued=%d (%s)",
			ts, e.Flush.WALNum, e.Flush.Bytes, e.Flush.Immutables, e.Flush.Reason)
	case KindFlushEnd:
		if e.Flush.Error != "" {
			return fmt.Sprintf("%s flush FAILED: %s", ts, e.Flush.Error)
		}
		return fmt.Sprintf("%s flush end: sst=%d %dB in %dµs, L0=%d",
			ts, e.Flush.OutputFile, e.Flush.Bytes, e.Flush.DurationUS, e.Flush.L0Files)
	case KindCompactionBegin:
		return fmt.Sprintf("%s compaction begin: L%d→L%d score=%.2f inputs=%d+%d (%dB)",
			ts, e.Compaction.Level, e.Compaction.OutputLevel, e.Compaction.Score,
			e.Compaction.InputFiles, e.Compaction.OverlapFiles, e.Compaction.BytesRead)
	case KindCompactionEnd:
		if e.Compaction.Error != "" {
			return fmt.Sprintf("%s compaction L%d→L%d FAILED: %s",
				ts, e.Compaction.Level, e.Compaction.OutputLevel, e.Compaction.Error)
		}
		if e.Compaction.TrivialMove {
			return fmt.Sprintf("%s compaction end: L%d→L%d trivial move (%d files, no I/O) in %dµs",
				ts, e.Compaction.Level, e.Compaction.OutputLevel,
				e.Compaction.OutputFiles, e.Compaction.DurationUS)
		}
		return fmt.Sprintf("%s compaction end: L%d→L%d read %dB wrote %dB (%d files, %d subs) in %dµs",
			ts, e.Compaction.Level, e.Compaction.OutputLevel, e.Compaction.BytesRead,
			e.Compaction.BytesWritten, e.Compaction.OutputFiles,
			e.Compaction.Subcompactions, e.Compaction.DurationUS)
	case KindCompactionDeferred:
		return fmt.Sprintf("%s compaction deferred: L%d→L%d %dB projected over space budget",
			ts, e.Compaction.Level, e.Compaction.OutputLevel, e.Compaction.BytesRead)
	case KindStallChange:
		return fmt.Sprintf("%s stall %s → %s (L0=%d imm=%d rate=%.1fMB/s)",
			ts, e.Stall.From, e.Stall.To, e.Stall.L0Files, e.Stall.Immutables,
			e.Stall.Rate/(1<<20))
	case KindRateChange:
		dir := "inc"
		if e.Rate.Behind {
			dir = "dec"
		}
		return fmt.Sprintf("%s rate %s ×%.2f: %.1f → %.1f MB/s",
			ts, dir, e.Rate.Factor, e.Rate.OldRate/(1<<20), e.Rate.NewRate/(1<<20))
	case KindWALSync:
		return fmt.Sprintf("%s wal sync: log=%d %dB in %dµs",
			ts, e.WALSync.WALNum, e.WALSync.Bytes, e.WALSync.DurationUS)
	case KindBackgroundError:
		return fmt.Sprintf("%s BACKGROUND ERROR (%s, %s): %s",
			ts, e.BGError.Op, e.BGError.Severity, e.BGError.Error)
	case KindRecoveryBegin:
		return fmt.Sprintf("%s recovery begin: op=%s severity=%s",
			ts, e.Recovery.Op, e.Recovery.Severity)
	case KindRecoveryAttempt:
		mode := "auto"
		if e.Recovery.Manual {
			mode = "manual"
		}
		if e.Recovery.Error != "" {
			return fmt.Sprintf("%s recovery attempt %d (%s, op=%s) FAILED: %s",
				ts, e.Recovery.Attempt, mode, e.Recovery.Op, e.Recovery.Error)
		}
		return fmt.Sprintf("%s recovery attempt %d (%s, op=%s)",
			ts, e.Recovery.Attempt, mode, e.Recovery.Op)
	case KindRecoverySuccess:
		return fmt.Sprintf("%s recovery SUCCESS after attempt %d (op=%s): health=%s",
			ts, e.Recovery.Attempt, e.Recovery.Op, e.Recovery.Health)
	case KindRecoveryGiveup:
		return fmt.Sprintf("%s recovery GIVEUP after attempt %d (op=%s): %s",
			ts, e.Recovery.Attempt, e.Recovery.Op, e.Recovery.Error)
	case KindSuperVersionInstall:
		return fmt.Sprintf("%s superversion install (%s): imm=%d L0=%d",
			ts, e.SuperVersion.Reason, e.SuperVersion.Immutables, e.SuperVersion.L0Files)
	case KindObsoleteGC:
		return fmt.Sprintf("%s obsolete gc: %d zombie SST(s) deleted", ts, e.ObsoleteGC.Count)
	case KindScrubBegin:
		return fmt.Sprintf("%s scrub pass %d begin", ts, e.Scrub.Pass)
	case KindScrubComplete:
		return fmt.Sprintf("%s scrub pass %d complete: %d file(s) %dB verified, %d corruption(s)",
			ts, e.Scrub.Pass, e.Scrub.Files, e.Scrub.Bytes, e.Scrub.Corruptions)
	case KindScrubCorruption:
		return fmt.Sprintf("%s scrub CORRUPTION: sst=%d L%d: %s",
			ts, e.Integrity.FileNum, e.Integrity.Level, e.Integrity.Detail)
	case KindQuarantine:
		return fmt.Sprintf("%s quarantine: sst=%d L%d [%s, %s]: %s",
			ts, e.Integrity.FileNum, e.Integrity.Level, e.Integrity.Smallest,
			e.Integrity.Largest, e.Integrity.Detail)
	case KindRepair:
		return fmt.Sprintf("%s repair: sst=%d L%d re-compacted, no loss",
			ts, e.Integrity.FileNum, e.Integrity.Level)
	case KindDataLoss:
		return fmt.Sprintf("%s DATA LOSS: sst=%d L%d dropped, keys [%s, %s] affected: %s",
			ts, e.Integrity.FileNum, e.Integrity.Level, e.Integrity.Smallest,
			e.Integrity.Largest, e.Integrity.Detail)
	case KindSlowOp:
		var stages strings.Builder
		names := make([]string, 0, len(e.SlowOp.Stages))
		for name := range e.SlowOp.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&stages, " %s=%dµs", name, e.SlowOp.Stages[name])
		}
		return fmt.Sprintf("%s SLOW %s: %dµs (threshold %dµs)%s",
			ts, e.SlowOp.Op, e.SlowOp.LatencyUS, e.SlowOp.ThresholdUS, stages.String())
	}
	return fmt.Sprintf("%s %s", ts, e.Kind)
}
