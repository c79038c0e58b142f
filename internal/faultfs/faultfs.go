// Package faultfs is a programmable fault-injection filesystem: it
// wraps any vfs.FS and perturbs the storage layer the way real devices
// and kernels fail — injected errors on any operation (selected by
// path glob, probability, or trigger count), torn writes that persist
// only a prefix of the payload, added per-operation latency charged to
// the engine clock, and crash snapshots that capture the exact on-disk
// state (synced prefixes plus, optionally, partially surviving and
// bit-flipped unsynced tails) at an arbitrary operation boundary.
//
// The wrapper maintains a shadow of every file: the bytes written
// through it and the prefix known durable (advanced only by a
// successful Sync). A Snapshot is a deep copy of that shadow, and
// Materialize turns one into a fresh vfs.MemFS image "as the disk
// would look after the crash" — the generalization of
// vfs.MemFS.CrashClone that the crash-consistency torture harness
// (internal/torture) reopens engines from.
//
// All randomness (probabilistic rules, torn-write lengths) comes from
// a caller-provided seed, so a run is reproducible given the same seed
// and operation interleaving. Every operation can also be traced as an
// events.KindFSOp event, composing with the engine's event log.
//
// faultfs is test infrastructure: the shadow keeps file contents in
// memory and New reads every pre-existing file eagerly, so wrap
// small/simulated filesystems, not multi-gigabyte OS directories.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"sync"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/events"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// Op identifies one filesystem operation class for rule matching.
type Op uint8

// The operation classes rules can target.
const (
	OpCreate Op = iota
	OpOpen
	OpRemove
	OpRename
	OpList
	OpSize
	OpWrite
	OpReadAt
	OpSync
	OpClose
)

var opNames = [...]string{
	OpCreate: "create", OpOpen: "open", OpRemove: "remove",
	OpRename: "rename", OpList: "list", OpSize: "size",
	OpWrite: "write", OpReadAt: "read_at", OpSync: "sync",
	OpClose: "close",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ErrInjected is the default error returned by a firing fault rule.
var ErrInjected = errors.New("faultfs: injected fault")

// Fault is what happens when a rule fires.
//
// A zero Fault fails the operation with ErrInjected. Latency alone
// (Err nil, Torn false) delays the operation without failing it. Torn
// applies to OpWrite: a seeded-random strict prefix of the payload is
// written through before the error is returned, modeling a torn
// (partial-sector) write.
type Fault struct {
	// Err is returned to the caller; nil with Torn or a zero Latency
	// means ErrInjected.
	Err error
	// Torn makes a failing write persist a random prefix first.
	Torn bool
	// Bitrot applies to OpReadAt: the read SUCCEEDS but one
	// seeded-random bit of the returned buffer is flipped, restricted
	// to bytes the file had synced — the silent media-error model
	// (acknowledged-durable data rots), as opposed to Torn, which
	// corrupts only the unsynced crash tail. The underlying file is
	// untouched: rot is per-read, so a retry after the rule heals sees
	// clean bytes, modeling a transient controller/DMA error; a rule
	// with no transient bounds models a rotten region. Bitrot ignores
	// Err and Torn.
	Bitrot bool
	// Latency delays the operation on the filesystem's clock.
	Latency time.Duration
}

// Rule selects operations and applies a Fault to them. Fields combine
// conjunctively; zero values mean "no constraint".
//
// FailNTimes and HealAfter make a rule transient: it injects faults for
// a bounded episode and then heals permanently, modeling a device
// brown-out (a loose cable, a controller reset, a full-then-trimmed
// disk) rather than a dead one. Healed rules never fire again, which is
// what lets the engine's background-error recovery prove it can return
// to service without a reopen.
type Rule struct {
	// Ops lists the operation classes the rule targets (nil = all).
	Ops []Op
	// Path is a path.Match glob the file name must match ("" = all).
	// Rename matches the old name.
	Path string
	// After skips the first After matching operations.
	After int64
	// Count caps how many times the rule fires (0 = unlimited).
	Count int64
	// Prob fires the rule with this probability per eligible
	// operation (0 or ≥1 = always).
	Prob float64
	// FailNTimes, when > 0, makes the rule fire deterministically
	// (ignoring Prob) on its first FailNTimes eligible operations and
	// then heal permanently. Unlike Count — which caps fires but
	// leaves a probabilistic rule armed forever — a FailNTimes rule is
	// guaranteed healthy once its budget is consumed.
	FailNTimes int64
	// HealAfter, when > 0, heals the rule this long (on the wrapper's
	// clock) after its first eligible operation: operations inside the
	// window fault per the other selectors, later ones pass.
	HealAfter time.Duration
	// Fault is applied when the rule fires.
	Fault Fault

	matched    int64
	fired      int64
	healed     bool
	firstMatch time.Time
	fs         *FS
}

// Matched returns how many operations matched the rule's selectors
// (including ones skipped by After/Count/Prob).
func (r *Rule) Matched() int64 {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return r.matched
}

// Fired returns how many times the rule's fault was applied.
func (r *Rule) Fired() int64 {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return r.fired
}

// Healed reports whether a transient rule (FailNTimes or HealAfter set)
// has permanently stopped firing. Rules without transient bounds never
// heal.
func (r *Rule) Healed() bool {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if !r.healed && r.HealAfter > 0 && !r.firstMatch.IsZero() &&
		r.fs.clk.Now().Sub(r.firstMatch) >= r.HealAfter {
		// The heal deadline may pass without another matching
		// operation to observe it; report it anyway.
		r.healed = true
	}
	return r.healed
}

// shadow is the wrapper's record of one file: everything written
// through the wrapper and the prefix known durable.
type shadow struct {
	data   []byte
	synced int
}

// FS wraps an inner vfs.FS with fault injection, op tracing, and crash
// snapshot capture. Create one with New; it implements vfs.FS.
type FS struct {
	inner vfs.FS
	clk   clock.Clock
	trace events.Listener

	mu      sync.Mutex
	rng     *rand.Rand
	rules   []*Rule
	shadows map[string]*shadow
	ops     int64
	inject  int64
	crashAt int64 // capture a snapshot when ops reaches this (>0)
	snap    *Snapshot

	// Capacity quota. quota < 0 means unlimited (the default); used is
	// the sum of shadow byte lengths, maintained incrementally at every
	// shadow mutation. When a quota is set, Write/Create/Sync are
	// metered against it and fail with an error wrapping vfs.ErrNoSpace
	// once the budget is exhausted — SetQuota below current usage
	// models an externally filled disk (everything fails until space is
	// freed or the quota grows back).
	quota  int64
	used   int64
	enospc int64 // operations failed by the quota
}

var _ vfs.FS = (*FS)(nil)

// New wraps inner, seeding all randomized decisions from seed. clk is
// the clock injected latency sleeps on and HealAfter and trace
// timestamps read: the clock of the engine the filesystem serves. Files
// already present on inner are read eagerly into the shadow and marked
// fully synced (wrapping a filesystem at rest: everything on disk is
// durable).
func New(inner vfs.FS, clk clock.Clock, seed int64) (*FS, error) {
	f := &FS{
		inner:   inner,
		clk:     clk,
		rng:     rand.New(rand.NewSource(seed)),
		shadows: make(map[string]*shadow),
		quota:   -1,
	}
	names, err := inner.List()
	if err != nil {
		return nil, fmt.Errorf("faultfs: list inner: %w", err)
	}
	for _, name := range names {
		size, err := inner.Size(name)
		if err != nil {
			return nil, fmt.Errorf("faultfs: size %s: %w", name, err)
		}
		data := make([]byte, size)
		if size > 0 {
			h, err := inner.Open(name)
			if err != nil {
				return nil, fmt.Errorf("faultfs: hydrate %s: %w", name, err)
			}
			_, rerr := h.ReadAt(data, 0)
			h.Close()
			if rerr != nil {
				return nil, fmt.Errorf("faultfs: hydrate %s: %w", name, rerr)
			}
		}
		f.shadows[name] = &shadow{data: data, synced: len(data)}
		f.used += int64(size)
	}
	return f, nil
}

// ErrNoSpace is the quota's disk-full error. It wraps vfs.ErrNoSpace,
// so errors.Is(err, vfs.ErrNoSpace) identifies injected capacity
// exhaustion exactly like a real ENOSPC.
var ErrNoSpace = fmt.Errorf("faultfs: disk full: %w", vfs.ErrNoSpace)

// SetQuota installs (or adjusts at runtime) the capacity budget in
// bytes; negative means unlimited. Shrinking the quota below current
// usage makes every subsequent Write/Create/Sync fail with ErrNoSpace
// until files are removed or the quota grows — the squeeze/release
// primitive the ENOSPC torture mode is built on.
func (f *FS) SetQuota(bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quota = bytes
}

// Quota returns the current byte budget (negative = unlimited).
func (f *FS) Quota() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.quota
}

// DiskUsed returns the bytes currently consumed (the sum of all file
// lengths as written through the wrapper).
func (f *FS) DiskUsed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.used
}

// EnospcCount returns how many operations the quota has failed.
func (f *FS) EnospcCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.enospc
}

// chargeQuota meters one operation against the byte budget: add is the
// bytes the operation would append (0 for Create/Sync, which only
// probe for headroom). It returns ErrNoSpace when the budget cannot
// cover it. A full disk fails creates outright (no inode headroom),
// and a disk squeezed below usage fails syncs too — dirty pages have
// nowhere to go, which is how kernels surface ENOSPC on fsync.
func (f *FS) chargeQuota(op Op, add int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.quota < 0 {
		return nil
	}
	over := false
	switch op {
	case OpWrite:
		over = f.used+int64(add) > f.quota
	case OpCreate:
		over = f.used >= f.quota
	default: // OpSync
		over = f.used > f.quota
	}
	if over {
		f.enospc++
		return ErrNoSpace
	}
	return nil
}

// SetTrace installs a listener receiving one events.KindFSOp event per
// operation. Call before use.
func (f *FS) SetTrace(l events.Listener) { f.trace = l }

// AddRule registers a fault rule and returns it for counter queries.
// Rules are evaluated in registration order; the first one that fires
// wins for a given operation.
func (f *FS) AddRule(r Rule) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	r.fs = f
	rp := &r
	f.rules = append(f.rules, rp)
	return rp
}

// ClearRules removes all fault rules.
func (f *FS) ClearRules() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// OpCount returns the number of operations observed so far.
func (f *FS) OpCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// InjectedCount returns the number of operations a fault was applied
// to.
func (f *FS) InjectedCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inject
}

// ArmCrash schedules a crash snapshot to be captured automatically at
// the start of the afterOps-th operation from now (before that
// operation's effects apply). Re-arming discards a previously captured
// snapshot.
func (f *FS) ArmCrash(afterOps int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = f.ops + afterOps
	f.snap = nil
}

// ForceCrash captures the crash snapshot immediately if none has been
// captured yet, and returns it.
func (f *FS) ForceCrash() *Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.snap == nil {
		f.snap = f.snapshotLocked()
	}
	return f.snap
}

// Crashed reports whether the armed crash snapshot has been captured.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap != nil
}

// CrashSnapshot returns the captured crash snapshot, or nil if the
// crash point has not been reached.
func (f *FS) CrashSnapshot() *Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap
}

// Snapshot captures the current shadow state without arming or
// consuming the crash trigger.
func (f *FS) Snapshot() *Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapshotLocked()
}

func (f *FS) snapshotLocked() *Snapshot {
	s := &Snapshot{files: make(map[string]shadow, len(f.shadows))}
	for name, sh := range f.shadows {
		s.files[name] = shadow{data: append([]byte(nil), sh.data...), synced: sh.synced}
	}
	return s
}

// begin counts the operation, captures an armed crash snapshot at the
// boundary, and evaluates rules, returning the fault to apply (nil for
// none).
func (f *FS) begin(op Op, name string) *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.crashAt > 0 && f.snap == nil && f.ops >= f.crashAt {
		f.snap = f.snapshotLocked()
	}
	for _, r := range f.rules {
		if len(r.Ops) > 0 {
			hit := false
			for _, o := range r.Ops {
				if o == op {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		if r.Path != "" {
			if ok, _ := path.Match(r.Path, name); !ok {
				continue
			}
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.healed {
			continue
		}
		if r.HealAfter > 0 {
			now := f.clk.Now()
			if r.firstMatch.IsZero() {
				r.firstMatch = now
			} else if now.Sub(r.firstMatch) >= r.HealAfter {
				r.healed = true
				continue
			}
		}
		if r.FailNTimes > 0 {
			if r.fired >= r.FailNTimes {
				r.healed = true
				continue
			}
			// Deterministic transient episode: Prob does not apply.
		} else {
			if r.Count > 0 && r.fired >= r.Count {
				continue
			}
			if r.Prob > 0 && r.Prob < 1 && f.rng.Float64() >= r.Prob {
				continue
			}
		}
		r.fired++
		if r.FailNTimes > 0 && r.fired >= r.FailNTimes {
			// Budget consumed: healed from the next operation on.
			r.healed = true
		}
		f.inject++
		ft := r.Fault
		return &ft
	}
	return nil
}

// faultErr resolves the error a firing fault reports, or nil for a
// latency-only fault.
func faultErr(ft *Fault) error {
	if ft.Err != nil {
		return ft.Err
	}
	if ft.Torn || ft.Latency == 0 {
		return ErrInjected
	}
	return nil // latency only
}

// applyLatency sleeps the fault's injected delay on the engine clock.
func (f *FS) applyLatency(ft *Fault) {
	if ft != nil && ft.Latency > 0 {
		f.clk.Sleep(ft.Latency)
	}
}

// emit traces one completed operation.
func (f *FS) emit(op Op, name string, bytes int, start time.Time, err error, injected bool) {
	if f.trace == nil {
		return
	}
	now := f.clk.Now()
	e := &events.FSOp{
		Op:         op.String(),
		Path:       name,
		Bytes:      bytes,
		DurationUS: now.Sub(start).Microseconds(),
		Injected:   injected,
	}
	if err != nil {
		e.Error = err.Error()
	}
	f.trace.Emit(events.Event{TS: now, Kind: events.KindFSOp, FSOp: e})
}

// now returns a trace timestamp, skipping the clock read when tracing
// is off.
func (f *FS) now() time.Time {
	if f.trace == nil {
		return time.Time{}
	}
	return f.clk.Now()
}

// ---------------------------------------------------------------------
// vfs.FS implementation

// Create creates (truncating) name, resetting its shadow.
func (f *FS) Create(name string) (vfs.File, error) {
	start := f.now()
	ft := f.begin(OpCreate, name)
	f.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			f.emit(OpCreate, name, 0, start, err, true)
			return nil, err
		}
	}
	if err := f.chargeQuota(OpCreate, 0); err != nil {
		f.emit(OpCreate, name, 0, start, err, true)
		return nil, err
	}
	h, err := f.inner.Create(name)
	if err == nil {
		f.mu.Lock()
		if old, ok := f.shadows[name]; ok {
			f.used -= int64(len(old.data)) // truncation frees the old bytes
		}
		f.shadows[name] = &shadow{}
		f.mu.Unlock()
	}
	f.emit(OpCreate, name, 0, start, err, ft != nil)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: name, inner: h}, nil
}

// Open opens name for reading (and appending, per the vfs contract).
func (f *FS) Open(name string) (vfs.File, error) {
	start := f.now()
	ft := f.begin(OpOpen, name)
	f.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			f.emit(OpOpen, name, 0, start, err, true)
			return nil, err
		}
	}
	h, err := f.inner.Open(name)
	f.emit(OpOpen, name, 0, start, err, ft != nil)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: name, inner: h}, nil
}

// Remove deletes name.
func (f *FS) Remove(name string) error {
	start := f.now()
	ft := f.begin(OpRemove, name)
	f.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			f.emit(OpRemove, name, 0, start, err, true)
			return err
		}
	}
	err := f.inner.Remove(name)
	if err == nil {
		f.mu.Lock()
		if sh, ok := f.shadows[name]; ok {
			f.used -= int64(len(sh.data))
		}
		delete(f.shadows, name)
		f.mu.Unlock()
	}
	f.emit(OpRemove, name, 0, start, err, ft != nil)
	return err
}

// Rename atomically renames oldname to newname. The rename is treated
// as durable immediately (directory metadata journaling), matching
// vfs.MemFS semantics.
func (f *FS) Rename(oldname, newname string) error {
	start := f.now()
	ft := f.begin(OpRename, oldname)
	f.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			f.emit(OpRename, oldname, 0, start, err, true)
			return err
		}
	}
	err := f.inner.Rename(oldname, newname)
	if err == nil {
		f.mu.Lock()
		if sh, ok := f.shadows[oldname]; ok {
			if tgt, ok := f.shadows[newname]; ok {
				f.used -= int64(len(tgt.data)) // replaced target freed
			}
			delete(f.shadows, oldname)
			f.shadows[newname] = sh
		}
		f.mu.Unlock()
	}
	f.emit(OpRename, oldname, 0, start, err, ft != nil)
	return err
}

// List returns the inner filesystem's file names.
func (f *FS) List() ([]string, error) {
	start := f.now()
	ft := f.begin(OpList, "")
	f.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			f.emit(OpList, "", 0, start, err, true)
			return nil, err
		}
	}
	names, err := f.inner.List()
	f.emit(OpList, "", 0, start, err, ft != nil)
	return names, err
}

// Size returns the size of name.
func (f *FS) Size(name string) (int64, error) {
	start := f.now()
	ft := f.begin(OpSize, name)
	f.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			f.emit(OpSize, name, 0, start, err, true)
			return 0, err
		}
	}
	n, err := f.inner.Size(name)
	f.emit(OpSize, name, 0, start, err, ft != nil)
	return n, err
}

// ---------------------------------------------------------------------
// file handle

// file is a wrapped handle. Appends through it are recorded in the
// shadow; per-file append/sync callers are assumed serialized (as the
// engine guarantees for WAL, SST, and MANIFEST files).
type file struct {
	fs    *FS
	name  string
	inner vfs.File
}

func (h *file) Write(p []byte) (int, error) {
	start := h.fs.now()
	ft := h.fs.begin(OpWrite, h.name)
	h.fs.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			if ft.Torn && len(p) > 0 {
				// Persist a strict prefix, then fail: a torn write.
				h.fs.mu.Lock()
				k := h.fs.rng.Intn(len(p))
				h.fs.mu.Unlock()
				if k > 0 {
					if n, werr := h.inner.Write(p[:k]); werr == nil && n > 0 {
						h.fs.record(h.name, p[:n])
					}
				}
			}
			h.fs.emit(OpWrite, h.name, len(p), start, err, true)
			return 0, err
		}
	}
	if err := h.fs.chargeQuota(OpWrite, len(p)); err != nil {
		h.fs.emit(OpWrite, h.name, len(p), start, err, true)
		return 0, err
	}
	n, err := h.inner.Write(p)
	if n > 0 {
		h.fs.record(h.name, p[:n])
	}
	h.fs.emit(OpWrite, h.name, len(p), start, err, ft != nil)
	return n, err
}

// record appends written bytes to the shadow.
func (f *FS) record(name string, p []byte) {
	f.mu.Lock()
	sh, ok := f.shadows[name]
	if !ok {
		sh = &shadow{}
		f.shadows[name] = sh
	}
	sh.data = append(sh.data, p...)
	f.used += int64(len(p))
	f.mu.Unlock()
}

func (h *file) ReadAt(p []byte, off int64) (int, error) {
	start := h.fs.now()
	ft := h.fs.begin(OpReadAt, h.name)
	h.fs.applyLatency(ft)
	if ft != nil && !ft.Bitrot {
		if err := faultErr(ft); err != nil {
			h.fs.emit(OpReadAt, h.name, len(p), start, err, true)
			return 0, err
		}
	}
	n, err := h.inner.ReadAt(p, off)
	if ft != nil && ft.Bitrot && n > 0 {
		h.fs.bitrot(h.name, p[:n], off)
	}
	h.fs.emit(OpReadAt, h.name, len(p), start, err, ft != nil)
	return n, err
}

// bitrot flips one seeded-random bit of the buffer just read, within
// the portion of [off, off+len(p)) the file had synced. Synced bytes
// are exactly the ones a media error can silently rot: unsynced bytes
// are already covered by the crash model (Materialize's torn tail). A
// read window holding no synced bytes is returned intact.
func (f *FS) bitrot(name string, p []byte, off int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	syncedEnd := int64(0)
	if sh, ok := f.shadows[name]; ok {
		syncedEnd = int64(sh.synced)
	}
	n := syncedEnd - off
	if n > int64(len(p)) {
		n = int64(len(p))
	}
	if n <= 0 {
		return
	}
	bit := f.rng.Intn(int(n) * 8)
	p[bit/8] ^= 1 << (bit % 8)
}

func (h *file) Sync() error {
	start := h.fs.now()
	ft := h.fs.begin(OpSync, h.name)
	// Capture the durable watermark before the inner sync: bytes
	// appended concurrently with the sync are conservatively treated
	// as still volatile.
	h.fs.mu.Lock()
	mark := 0
	if sh, ok := h.fs.shadows[h.name]; ok {
		mark = len(sh.data)
	}
	h.fs.mu.Unlock()
	h.fs.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			// Failed sync: nothing new promised durable.
			h.fs.emit(OpSync, h.name, 0, start, err, true)
			return err
		}
	}
	if err := h.fs.chargeQuota(OpSync, 0); err != nil {
		h.fs.emit(OpSync, h.name, 0, start, err, true)
		return err
	}
	err := h.inner.Sync()
	if err == nil {
		h.fs.mu.Lock()
		if sh, ok := h.fs.shadows[h.name]; ok && mark > sh.synced {
			sh.synced = mark
		}
		h.fs.mu.Unlock()
	}
	h.fs.emit(OpSync, h.name, 0, start, err, ft != nil)
	return err
}

func (h *file) Close() error {
	start := h.fs.now()
	ft := h.fs.begin(OpClose, h.name)
	h.fs.applyLatency(ft)
	if ft != nil {
		if err := faultErr(ft); err != nil {
			h.fs.emit(OpClose, h.name, 0, start, err, true)
			return err
		}
	}
	err := h.inner.Close()
	h.fs.emit(OpClose, h.name, 0, start, err, ft != nil)
	return err
}

// ---------------------------------------------------------------------
// Snapshot

// Snapshot is a point-in-time copy of the shadow state: per file, the
// bytes written and the prefix known durable. It is immutable.
type Snapshot struct {
	files map[string]shadow
}

// Files returns the snapshot's file names, sorted.
func (s *Snapshot) Files() []string {
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SyncedBytes returns the durable prefix length of name.
func (s *Snapshot) SyncedBytes(name string) int64 {
	return int64(s.files[name].synced)
}

// TotalBytes returns the written length of name (durable or not).
func (s *Snapshot) TotalBytes(name string) int64 {
	return int64(len(s.files[name].data))
}

// CrashOpts selects how much of the unsynced data survives in a
// materialized crash image.
type CrashOpts struct {
	// KeepUnsynced keeps a seeded-random prefix of each file's
	// unsynced tail (a crash racing the device's write-back). False
	// drops every unsynced byte, matching vfs.MemFS.CrashClone.
	KeepUnsynced bool
	// Torn flips random bits inside the surviving unsynced region,
	// modeling a torn sector. Synced bytes are never corrupted: a
	// completed fsync is the device's durability promise.
	Torn bool
}

// Materialize builds the post-crash filesystem image: a fresh
// vfs.MemFS on dev holding, for every file, its synced prefix plus
// whatever unsynced tail opts and rng decide survived. Files are
// processed in sorted-name order so a fixed rng seed yields a fixed
// image.
func (s *Snapshot) Materialize(dev *storage.Device, rng *rand.Rand, opts CrashOpts) (*vfs.MemFS, error) {
	out := vfs.NewMem(dev)
	for _, name := range s.Files() {
		sh := s.files[name]
		keep := sh.synced
		if opts.KeepUnsynced && len(sh.data) > sh.synced {
			keep += rng.Intn(len(sh.data) - sh.synced + 1)
		}
		data := append([]byte(nil), sh.data[:keep]...)
		if opts.Torn && keep > sh.synced {
			flips := 1 + rng.Intn(4)
			for i := 0; i < flips; i++ {
				pos := sh.synced + rng.Intn(keep-sh.synced)
				data[pos] ^= 1 << uint(rng.Intn(8))
			}
		}
		h, err := out.Create(name)
		if err != nil {
			return nil, fmt.Errorf("faultfs: materialize %s: %w", name, err)
		}
		if len(data) > 0 {
			if _, err := h.Write(data); err != nil {
				h.Close()
				return nil, fmt.Errorf("faultfs: materialize %s: %w", name, err)
			}
		}
		if err := h.Sync(); err != nil {
			h.Close()
			return nil, fmt.Errorf("faultfs: materialize %s: %w", name, err)
		}
		h.Close()
	}
	return out, nil
}
