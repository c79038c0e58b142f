package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/costmodel"
	"xpointdb/internal/engine"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// userBytesPerOp is what one Put hands the store: a 16-byte key and a
// 1 KiB value.
const userBytesPerOp = 16 + valueSize

// store is one engine instance on its MemFS and device, with the
// bench's tracing wrapper around the filesystem when the run is traced.
type store struct {
	clk  clock.Clock
	dev  *storage.Device
	mem  *vfs.MemFS
	tfs  *traceFS // nil when untraced
	opts engine.Options
	db   *engine.DB
}

// openStore opens an empty store with engine.DefaultOptions untouched
// apart from the substrate: the real clock on a zero-latency device for
// host workloads, the kernel's clock, a device profile and the default
// cost model for simulated ones.
func openStore(clk clock.Clock, prof storage.Profile, simulated, traced bool) (*store, error) {
	s := &store{clk: clk, dev: storage.New(clk, prof)}
	s.mem = vfs.NewMem(s.dev)
	var fs vfs.FS = s.mem
	if traced {
		s.tfs = newTraceFS(s.mem, clk)
		fs = s.tfs
	}
	s.opts = engine.DefaultOptions(fs)
	if simulated {
		s.opts.Clock = clk
		s.opts.CostModel = costmodel.Default()
	}
	return s, s.reopen()
}

func openHostStore(traced bool) (*store, error) {
	return openStore(clock.Real{}, storage.Null(), false, traced)
}

// reopen opens the engine on the store's existing files.
func (s *store) reopen() error {
	db, err := engine.Open(s.opts)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	s.db = db
	return nil
}

// settled reports whether the tree needs no compaction: Level 0 is
// under its trigger and no deeper level is over its size target. A job
// in flight keeps its level over the line until it installs, so a
// settled tree also has none running.
func (s *store) settled() bool {
	ls := s.db.LevelStats()
	for _, l := range ls.Levels {
		if l.Score >= 1 && (l.Level == 0 || l.Score > 1) {
			return false
		}
	}
	return true
}

// drain flushes the memtable and waits until the tree has settled, so
// that a write rate measured up to here is one the store can sustain.
func (s *store) drain() error {
	if err := s.db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !s.settled() {
		if err := s.db.BackgroundError(); err != nil {
			return fmt.Errorf("background error while draining: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store did not settle: %s", s.db.DebugLayout())
		}
		s.clk.Sleep(500 * time.Microsecond)
	}
	return nil
}

// preload writes version 1 of keys [0, n) in a seeded random order,
// 32 to a batch, then drains. Random order makes the tree go through
// real flushes and merges; a sorted load would be relinked level to
// level without one.
func (s *store) preload(ds *dataset, n int) error {
	order := rand.New(rand.NewSource(ds.seed ^ 0x70726c64)).Perm(n)
	buf := make([]byte, valueSize)
	var b batch.Batch
	for i, id := range order {
		val, _ := ds.nextValue(buf, uint32(id))
		b.Put(ds.keys[id], val)
		if b.Count() == 32 || i == n-1 {
			if err := s.db.Apply(&b, false); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			// Not Reset: the memtable keeps the applied batch's value
			// bytes by reference, so the batch is not reusable.
			b = batch.Batch{}
		}
	}
	for _, id := range order {
		ds.done[id].Store(1)
	}
	return s.drain()
}

// verifyAll scans the whole store and counts the keys that are not
// present exactly once, in order, with the newest acknowledged version
// of the generator's value — and the keys present that were never
// written. It returns keys checked and keys wrong.
func (s *store) verifyAll(ds *dataset) (checked, bad int64, err error) {
	it, err := s.db.NewIter()
	if err != nil {
		return 0, 0, fmt.Errorf("verify scan: %w", err)
	}
	defer it.Close()
	it.SeekToFirst()
	for id := range ds.keys {
		want := ds.done[id].Load()
		if want == 0 {
			continue
		}
		checked++
		if !it.Valid() || string(it.Key()) != string(ds.keys[id]) {
			// Missing; an unexpected extra key is counted when the scan
			// reaches a key it can be matched against.
			bad++
			for it.Valid() && string(it.Key()) < string(ds.keys[id]) {
				it.Next()
			}
			continue
		}
		if !ds.check(uint32(id), it.Value(), want, want) {
			bad++
		}
		it.Next()
	}
	for ; it.Valid(); it.Next() {
		checked++
		bad++
	}
	return checked, bad, it.Error()
}

// verifySample reads n seeded random written keys back through Get.
func (s *store) verifySample(ds *dataset, n int) (checked, bad int64) {
	rng := rand.New(rand.NewSource(ds.seed ^ 0x73616d70))
	for i := 0; i < n; i++ {
		id := uint32(rng.Intn(len(ds.keys)))
		want := ds.done[id].Load()
		if want == 0 {
			continue
		}
		checked++
		v, err := s.db.Get(ds.keys[id])
		if err != nil || !ds.check(id, v, want, want) {
			bad++
		}
	}
	return checked, bad
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clients runs fn for client 0..n-1 as processes of clk and waits for
// all of them; under the simulator the wait is a kernel condition, so
// virtual time can advance while the caller is blocked.
func clients(clk clock.Clock, n int, fn func(c int)) {
	m := clk.NewMutex()
	cv := clk.NewCond(m)
	left := n
	for c := 0; c < n; c++ {
		c := c
		clk.Go(fmt.Sprintf("client-%d", c), func() {
			fn(c)
			m.Lock()
			left--
			if left == 0 {
				cv.Broadcast()
			}
			m.Unlock()
		})
	}
	m.Lock()
	for left > 0 {
		cv.Wait()
	}
	m.Unlock()
}

func memStats() (m runtime.MemStats) { runtime.ReadMemStats(&m); return }
