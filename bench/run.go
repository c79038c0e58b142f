package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
)

// run is one execution of one workload: its inputs, what it has
// measured so far and, when traced, the spans and the per-layer sums.
type run struct {
	workload string
	seed     int64
	budget   time.Duration // how long the timed repetitions go on
	traced   bool
	sim      bool // set by a simulated workload: rates and latencies are virtual
	setups   int  // how many times the starting store is built
	refReps  int  // leading repetitions a traced run leaves untraced
	rec      *recorder

	ds *dataset

	// One entry per repetition. A run reports the median of each, so a
	// repetition that the shared machine disturbed does not move it.
	rates    []float64 // fixed-work ops per second
	refRates []float64 // the same, for a traced run's untraced reference repetitions
	p50s     []float64 // the primary op's median latency, ns
	p99s     []float64
	cpuPerOp []float64 // process CPU ns per client op

	setupS    []float64 // one per set-up
	writeAmps []float64 // one per store
	samples   int64     // primary-op latencies behind p50s and p99s
	hostWall  time.Duration
	clientOps int64
	attempted int64
	failed    int64

	layer layerSums
}

// counters is every value the layers already export, read at the
// start and at the end of a traced phase.
type counters struct {
	m        engine.MetricsSnapshot
	dev      storage.Stats
	fs       fsTotals
	thrDelay time.Duration
	thrOps   int64
	mem      runtime.MemStats
}

func readCounters(st *store) counters {
	c := counters{m: st.db.Metrics().Snapshot(), dev: st.dev.Stats(), mem: memStats()}
	c.thrDelay, c.thrOps, _ = st.db.Controller().Stats()
	if st.tfs != nil {
		c.fs = st.tfs.totals()
	}
	return c
}

// snapshotValues is the counter snapshot written to the trace file.
func snapshotValues(c counters, st *store) map[string]float64 {
	v := map[string]float64{
		"engine.gets":                     float64(c.m.Gets),
		"engine.writes":                   float64(c.m.Writes),
		"engine.flushes":                  float64(c.m.Flushes),
		"engine.compactions":              float64(c.m.Compactions),
		"engine.compaction_bytes_written": float64(c.m.CompactionBytesWritten),
		"engine.superversion_installs":    float64(c.m.SuperVersionInstalls),
		"engine.stall_s":                  (c.m.StallDelayTotal + c.m.StallStopTotal).Seconds(),
		"storage.reads":                   float64(c.dev.Reads),
		"storage.writes":                  float64(c.dev.Writes),
		"storage.write_bytes":             float64(c.dev.WriteBytes),
		"runtime.total_alloc":             float64(c.mem.TotalAlloc),
		"runtime.num_gc":                  float64(c.mem.NumGC),
	}
	for _, l := range st.db.LevelStats().Levels {
		if l.Files > 0 {
			v["engine.files_l"+string(rune('0'+l.Level))] = float64(l.Files)
		}
	}
	return v
}

// opKind is what a client does; every client does one kind only.
type opKind string

const (
	opGet  opKind = "get"
	opPut  opKind = "put"
	opScan opKind = "scan"
)

// client is one closed-loop client: it issues its next operation only
// when the previous one has returned.
type client struct {
	id     int
	kind   opKind
	stream []uint32
	pos    int
	buf    []byte
	pc     *engine.PerfContext // nil when the repetition is untraced
	lat    []uint32            // this repetition's latencies, ns
	span   time.Duration
	ops    int64
	failed int64
}

func newClient(id int, kind opKind, stream []uint32, latCap int) *client {
	return &client{id: id, kind: kind, stream: stream, buf: make([]byte, valueSize), lat: make([]uint32, 0, latCap)}
}

// start readies the client for a repetition; it keeps its place in
// the op stream.
func (c *client) start(traced bool) {
	c.pc = nil
	if traced {
		c.pc = &engine.PerfContext{}
	}
	c.lat, c.span, c.ops, c.failed = c.lat[:0], 0, 0, 0
}

func (c *client) next() uint32 {
	id := c.stream[c.pos%len(c.stream)]
	c.pos++
	return id
}

// do issues the client's next operation and checks its result. A
// traced client keeps every sampleEvery-th one as a root span with the
// stage breakdown its PerfContext gained.
func (c *client) do(r *run, st *store) {
	id := c.next()
	var before engine.PerfContext
	sampled := c.pc != nil && c.ops%sampleEvery == 0
	if sampled {
		before = *c.pc
	}
	var t0 time.Time
	var d time.Duration
	ok := false
	switch c.kind {
	case opGet:
		t0, d, ok = c.get(r.ds, st, id)
	case opPut:
		t0, d, ok = c.put(r.ds, st, id)
	case opScan:
		t0, d, ok = c.scan(r.ds, st, id)
	}
	c.ops++
	c.span += d
	c.lat = append(c.lat, uint32(min(d, math.MaxUint32)))
	if !ok {
		c.failed++
	}
	if sampled {
		gained := *c.pc
		perfAdd(&gained, &before, -1)
		r.rec.addOp(opSpan{string(c.kind), c.id, t0, d, gained})
	}
}

// get reads one key; the value must be a version the generator wrote
// no earlier than the last one acknowledged before the call.
func (c *client) get(ds *dataset, st *store, id uint32) (t0 time.Time, d time.Duration, ok bool) {
	lo := ds.done[id].Load()
	var v []byte
	var err error
	t0 = st.clk.Now()
	if c.pc == nil {
		v, err = st.db.Get(ds.keys[id])
	} else {
		v, err = st.db.GetWithPerf(ds.keys[id], c.pc)
	}
	d = st.clk.Now().Sub(t0)
	return t0, d, err == nil && ds.check(id, v, lo, ds.issued[id].Load())
}

// put writes the next version of one key.
func (c *client) put(ds *dataset, st *store, id uint32) (t0 time.Time, d time.Duration, ok bool) {
	val, ver := ds.nextValue(c.buf, id)
	var err error
	t0 = st.clk.Now()
	if c.pc == nil {
		err = st.db.Put(ds.keys[id], val)
	} else {
		// What Put does, with the PerfContext passed along.
		var b batch.Batch
		b.Put(ds.keys[id], val)
		err = st.db.ApplyWithPerf(&b, false, c.pc)
	}
	d = st.clk.Now().Sub(t0)
	if err == nil {
		ds.done[id].Store(ver)
	}
	return t0, d, err == nil
}

// scanLen is how many entries a scan op reads. At 100 an op takes long
// enough on the 2-core sandbox that over 1 % of them lose a scheduler
// time slice to a GC worker, and p99 measures the host's scheduler.
const scanLen = 25

// scan opens an iterator, seeks to one key and reads the scanLen
// entries from there, checking each; the store is the preloaded one,
// so they are the scanLen next key ids at version 1.
func (c *client) scan(ds *dataset, st *store, id uint32) (t0 time.Time, d time.Duration, ok bool) {
	t0 = st.clk.Now()
	it, err := st.db.NewIter()
	if err != nil {
		return t0, st.clk.Now().Sub(t0), false
	}
	ok = true
	it.SeekGE(ds.keys[id])
	for k := id; k < id+scanLen; k++ {
		if !it.Valid() || string(it.Key()) != string(ds.keys[k]) || !ds.check(k, it.Value(), 1, 1) {
			ok = false
			break
		}
		it.Next()
	}
	err = it.Close()
	return t0, st.clk.Now().Sub(t0), ok && err == nil
}

// rep is one timed repetition. body runs cs (and, for a write
// workload, the drain) and returns the repetition's fixed work; the
// rate is that work over the time body took on the store's clock.
// primary names the clients whose latencies are the workload's.
func (r *run) rep(st *store, cs []*client, primary opKind, body func() (fixedOps int64, err error)) error {
	traced := r.traced && len(r.refRates) >= r.refReps
	if st.tfs != nil {
		st.tfs.on.Store(traced)
	}
	for _, c := range cs {
		c.start(traced)
	}
	runtime.GC() // set-up garbage is not charged to the timed phase
	var c0 counters
	if traced {
		c0 = readCounters(st)
		r.rec.addCounters("start", st.clk.Now(), snapshotValues(c0, st))
	}
	cpu0, host0, t0 := cpuTime(), time.Now(), st.clk.Now()
	fixedOps, err := body()
	wall := st.clk.Now().Sub(t0)
	cpu := cpuTime() - cpu0
	r.hostWall += time.Since(host0)
	if err != nil {
		return err
	}
	rate := float64(fixedOps) / wall.Seconds()
	if r.traced && !traced {
		r.refRates = append(r.refRates, rate)
	} else {
		r.rates = append(r.rates, rate)
	}
	if traced {
		c1 := readCounters(st)
		r.rec.addCounters("end", st.clk.Now(), snapshotValues(c1, st))
		r.layer.addCounters(c0, c1)
		r.layer.wall += wall
		r.layer.parallelism = st.dev.Profile().Parallelism
		r.layer.writers = 0
		for _, c := range cs {
			if c.kind == opPut {
				r.layer.writers++
			}
		}
		r.rec.takeFS(st.tfs)
	}
	var ops int64
	var lat []uint32
	for _, c := range cs {
		ops += c.ops
		r.failed += c.failed
		if c.kind == primary {
			lat = append(lat, c.lat...)
		}
		if traced {
			r.layer.addClient(c)
		}
	}
	r.clientOps += ops
	r.attempted += ops
	if traced == r.traced {
		slices.Sort(lat)
		r.p50s = append(r.p50s, percentile(lat, 50))
		r.p99s = append(r.p99s, percentile(lat, 99))
		r.cpuPerOp = append(r.cpuPerOp, ratio(float64(cpu), float64(ops)))
		r.samples += int64(len(lat))
	}
	return nil
}
