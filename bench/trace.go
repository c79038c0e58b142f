package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/vfs"
)

// Tracing lives entirely in this package: root spans are timed around
// the calls into the engine, child spans are synthesised from the
// PerfContext the call returns, and traceFS times the engine's calls
// into its vfs.FS. Nothing under internal/ is instrumented.

type fileClass int

const (
	classWAL fileClass = iota
	classSST
	classManifest
	classOther
	numClasses
)

var classNames = [numClasses]string{"wal", "sst", "manifest", "other"}

func classOf(name string) fileClass {
	switch {
	case strings.HasSuffix(name, ".log"):
		return classWAL
	case strings.HasSuffix(name, ".sst"):
		return classSST
	case strings.HasPrefix(name, "MANIFEST"):
		return classManifest
	}
	return classOther
}

type fsOp int

const (
	fsRead fsOp = iota
	fsWrite
	fsSync
	numFSOps
)

var fsOpNames = [numFSOps]string{"read", "write", "sync"}

type fsCounter struct{ calls, bytes, ns atomic.Int64 }

// maxFSSpans bounds the vfs spans kept for the trace file; the
// counters always cover every call.
const maxFSSpans = 20000

type fsSpan struct {
	class fileClass
	op    fsOp
	start time.Time
	dur   time.Duration
	bytes int
}

// traceFS wraps the vfs.FS handed to the engine and times every file
// operation by file class, on the clock the engine itself runs on
// (virtual time under the simulator).
type traceFS struct {
	inner   vfs.FS
	clk     clock.Clock
	on      atomic.Bool // off: calls pass straight through, untimed
	ctr     [numClasses][numFSOps]fsCounter
	created atomic.Int64

	kept  atomic.Int64
	mu    sync.Mutex
	spans []fsSpan
}

func newTraceFS(inner vfs.FS, clk clock.Clock) *traceFS {
	return &traceFS{inner: inner, clk: clk}
}

func (t *traceFS) Create(name string) (vfs.File, error) {
	f, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	if t.on.Load() {
		t.created.Add(1)
	}
	return &traceFile{File: f, fs: t, class: classOf(name)}, nil
}

func (t *traceFS) Open(name string) (vfs.File, error) {
	f, err := t.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, fs: t, class: classOf(name)}, nil
}

func (t *traceFS) Remove(name string) error             { return t.inner.Remove(name) }
func (t *traceFS) Rename(oldname, newname string) error { return t.inner.Rename(oldname, newname) }
func (t *traceFS) List() ([]string, error)              { return t.inner.List() }
func (t *traceFS) Size(name string) (int64, error)      { return t.inner.Size(name) }

func (t *traceFS) record(class fileClass, op fsOp, start time.Time, n int) {
	d := t.clk.Now().Sub(start)
	c := &t.ctr[class][op]
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	c.ns.Add(int64(d))
	if t.kept.Add(1) <= maxFSSpans {
		t.mu.Lock()
		t.spans = append(t.spans, fsSpan{class, op, start, d, n})
		t.mu.Unlock()
	}
}

type traceFile struct {
	vfs.File
	fs    *traceFS
	class fileClass
}

func (f *traceFile) Write(p []byte) (int, error) {
	if !f.fs.on.Load() {
		return f.File.Write(p)
	}
	t0 := f.fs.clk.Now()
	n, err := f.File.Write(p)
	f.fs.record(f.class, fsWrite, t0, n)
	return n, err
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.fs.on.Load() {
		return f.File.ReadAt(p, off)
	}
	t0 := f.fs.clk.Now()
	n, err := f.File.ReadAt(p, off)
	f.fs.record(f.class, fsRead, t0, n)
	return n, err
}

func (f *traceFile) Sync() error {
	if !f.fs.on.Load() {
		return f.File.Sync()
	}
	t0 := f.fs.clk.Now()
	err := f.File.Sync()
	f.fs.record(f.class, fsSync, t0, 0)
	return err
}

// fsTotals is a plain copy of traceFS's counters.
type fsTotals struct {
	ctr     [numClasses][numFSOps]struct{ calls, bytes, ns int64 }
	created int64
}

func (t *traceFS) totals() fsTotals {
	var s fsTotals
	for c := range t.ctr {
		for o := range t.ctr[c] {
			s.ctr[c][o].calls = t.ctr[c][o].calls.Load()
			s.ctr[c][o].bytes = t.ctr[c][o].bytes.Load()
			s.ctr[c][o].ns = t.ctr[c][o].ns.Load()
		}
	}
	s.created = t.created.Load()
	return s
}

// plus returns a + sign × b.
func (a fsTotals) plus(b fsTotals, sign int64) fsTotals {
	for c := range a.ctr {
		for o := range a.ctr[c] {
			a.ctr[c][o].calls += sign * b.ctr[c][o].calls
			a.ctr[c][o].bytes += sign * b.ctr[c][o].bytes
			a.ctr[c][o].ns += sign * b.ctr[c][o].ns
		}
	}
	a.created += sign * b.created
	return a
}

// perfAdd adds sign × src to dst, field by field.
func perfAdd(dst, src *engine.PerfContext, sign int) {
	d := time.Duration(sign)
	dst.ThrottleDelay += d * src.ThrottleDelay
	dst.WriteQueueWait += d * src.WriteQueueWait
	dst.WriteStall += d * src.WriteStall
	dst.WALAppend += d * src.WALAppend
	dst.WALSync += d * src.WALSync
	dst.MemtableInsert += d * src.MemtableInsert
	dst.MemtableProbe += d * src.MemtableProbe
	dst.ImmutableProbe += d * src.ImmutableProbe
	dst.L0ProbeTime += d * src.L0ProbeTime
	dst.DeepProbeTime += d * src.DeepProbeTime
	dst.BlockReadTime += d * src.BlockReadTime
	dst.L0Probes += sign * src.L0Probes
	dst.DeepProbes += sign * src.DeepProbes
	dst.BloomChecks += sign * src.BloomChecks
	dst.BloomSkips += sign * src.BloomSkips
	dst.BlockCacheHits += sign * src.BlockCacheHits
	dst.BlockCacheMisses += sign * src.BlockCacheMisses
}

// sampleEvery is how many client ops share one kept root span: a
// traced read_hot pass issues millions of Gets, and the per-layer sums
// come from the accumulated PerfContext, not from the kept spans.
const sampleEvery = 64

// opSpan is one kept client operation with its stage breakdown.
type opSpan struct {
	kind   string
	client int
	start  time.Time
	dur    time.Duration
	perf   engine.PerfContext
}

// recorder keeps a traced run's spans and counter snapshots in memory
// until the workload ends.
type recorder struct {
	workload string
	mu       sync.Mutex
	ops      []opSpan
	fsSpans  []fsSpan
	counters []counterSnap
}

type counterSnap struct {
	phase string
	at    time.Time
	vals  map[string]float64
}

func (r *recorder) addOp(s opSpan) {
	r.mu.Lock()
	r.ops = append(r.ops, s)
	r.mu.Unlock()
}

// takeFS moves the vfs spans a store's traceFS has kept so far into
// the recorder.
func (r *recorder) takeFS(t *traceFS) {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	r.mu.Lock()
	if room := maxFSSpans - len(r.fsSpans); room > 0 {
		r.fsSpans = append(r.fsSpans, spans[:min(room, len(spans))]...)
	}
	r.mu.Unlock()
}

func (r *recorder) addCounters(phase string, at time.Time, vals map[string]float64) {
	r.mu.Lock()
	r.counters = append(r.counters, counterSnap{phase, at, vals})
	r.mu.Unlock()
}

type spanLine struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Client   *int   `json:"client,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Bytes    int    `json:"bytes,omitempty"`
	Class    string `json:"class,omitempty"`
}

type counterLine struct {
	Counters string             `json:"counters"`
	Workload string             `json:"workload"`
	AtNs     int64              `json:"at_ns"`
	Values   map[string]float64 `json:"values"`
}

// write stores the trace as JSON lines in dir and returns the file's
// path; times are nanoseconds since the first span. Root spans carry a
// client; their children are laid end to end from the root's start in
// the order the engine runs the stages, because a PerfContext holds
// durations, not start times.
func (r *recorder) write(dir string) (string, error) {
	var epoch time.Time
	if len(r.counters) > 0 {
		epoch = r.counters[0].at
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var id int64
	emit := func(parent int64, name string, client *int, start time.Time, d time.Duration, bytes int, class string) int64 {
		id++
		s := start.Sub(epoch).Nanoseconds()
		_ = enc.Encode(spanLine{id, parent, name, r.workload, client, s, s + d.Nanoseconds(), bytes, class})
		return id
	}
	for _, op := range r.ops {
		c := op.client
		root := emit(0, op.kind, &c, op.start, op.dur, 0, "")
		at := op.start
		for _, st := range stagesOf(&op.perf) {
			if st.d > 0 {
				emit(root, st.name, nil, at, st.d, 0, "")
				at = at.Add(st.d)
			}
		}
	}
	for _, s := range r.fsSpans {
		emit(0, "vfs."+fsOpNames[s.op], nil, s.start, s.dur, s.bytes, classNames[s.class])
	}
	for _, cs := range r.counters {
		_ = enc.Encode(counterLine{cs.phase, r.workload, cs.at.Sub(epoch).Nanoseconds(), cs.vals})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace %s: %w", path, err)
	}
	return path, f.Close()
}

type stage struct {
	name string
	d    time.Duration
}

// stagesOf lists a PerfContext's stages in the order the engine runs them.
func stagesOf(pc *engine.PerfContext) []stage {
	return []stage{
		{"throttle.delay", pc.ThrottleDelay},
		{"engine.write_queue_wait", pc.WriteQueueWait},
		{"engine.write_stall", pc.WriteStall},
		{"wal.append", pc.WALAppend},
		{"wal.sync", pc.WALSync},
		{"memtable.insert", pc.MemtableInsert},
		{"memtable.probe", pc.MemtableProbe},
		{"memtable.immutable_probe", pc.ImmutableProbe},
		{"sstable.l0_probe", pc.L0ProbeTime},
		{"sstable.deep_probe", pc.DeepProbeTime},
	}
}
