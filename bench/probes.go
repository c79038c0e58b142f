package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/bgpool"
	"xpointdb/internal/bloom"
	"xpointdb/internal/cache"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/histogram"
	"xpointdb/internal/iterator"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/memtable"
	"xpointdb/internal/shardeddb"
	"xpointdb/internal/sim"
	"xpointdb/internal/skiplist"
	"xpointdb/internal/sstable"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

// Layer probes time the exported functions of one layer at a time,
// with workload-shaped inputs (16-byte user keys, 1 KiB values), on
// the host clock and a zero-latency MemFS. Each reading is the host
// nanoseconds per call of the best of a few rounds: a probe is a
// microbenchmark, and the fastest round is the least disturbed one.

const (
	probeEntries = 100_000 // keys the probes draw on
	// listEntries is the skiplist and memtable size: what a 4 MiB
	// memtable holds of 1 KiB values. The list's insert walks level 0
	// from the head, so its cost grows with the list, and a list of
	// probeEntries would take minutes to fill.
	listEntries  = 4_000
	tableEntries = 20_000 // entries per probe SST (≈ 20 MB)
	probeRounds  = 3
)

var probeSink int

// perOp runs fn n times and returns host nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// bestOf returns the smallest of probeRounds rounds.
func bestOf(round func() float64) float64 {
	b := math.Inf(1)
	for r := 0; r < probeRounds; r++ {
		b = math.Min(b, round())
	}
	return b
}

// best sets name to the fastest of probeRounds rounds of perOp.
func best(vs values, name string, n int, fn func(i int)) {
	vs.set(name, bestOf(func() float64 { return perOp(n, fn) }), int64(n))
}

// runProbes adds every probe's reading to vs. A probe that cannot
// build its fixture reports the error; its metrics then read 0.
func runProbes(vs values, seed int64) error {
	ds := newDataset(seed, probeEntries)
	rng := rand.New(rand.NewSource(seed ^ 0x70726f62))
	order := rng.Perm(probeEntries)
	val := ds.value(make([]byte, valueSize), 0, 1)
	ikeys := make([][]byte, probeEntries)
	for i, k := range ds.keys {
		ikeys[i] = keys.Make(k, uint64(i+1), keys.KindSet)
	}

	probeKeys(vs, ikeys, order)
	list := rng.Perm(listEntries)
	probeSkiplist(vs, ikeys, list, val)
	probeMemtable(vs, ds, list, val)
	probeBatch(vs, ds, val)
	probeBloom(vs, ds)
	probeCache(vs)
	probeSmall(vs)
	if err := probeWAL(vs, val); err != nil {
		return err
	}
	if err := probeSSTable(vs, ds, rng); err != nil {
		return err
	}
	if err := probeManifest(vs, ds); err != nil {
		return err
	}
	probeSim(vs)
	return probeSharded(vs, ds, order)
}

func probeKeys(vs values, ikeys [][]byte, order []int) {
	n := len(order) - 1
	best(vs, "keys.compare_ns", n, func(i int) {
		probeSink += keys.Compare(ikeys[order[i]], ikeys[order[i+1]])
	})
}

func probeSkiplist(vs values, ikeys [][]byte, order []int, val []byte) {
	var l *skiplist.SkipList
	vs.set("skiplist.insert_ns", bestOf(func() float64 {
		l = skiplist.New()
		return perOp(len(order), func(i int) { l.Insert(ikeys[order[i]], val) })
	}), int64(len(order)))
	best(vs, "skiplist.get_ns", len(order), func(i int) {
		if _, ok := l.Get(ikeys[order[i]]); ok {
			probeSink++
		}
	})
}

func probeMemtable(vs values, ds *dataset, order []int, val []byte) {
	var m *memtable.Memtable
	vs.set("memtable.add_ns", bestOf(func() float64 {
		m = memtable.New(4 << 20)
		return perOp(len(order), func(i int) { m.Add(uint64(i+1), keys.KindSet, ds.keys[order[i]], val) })
	}), int64(len(order)))
	best(vs, "memtable.get_ns", len(order), func(i int) {
		if _, found, _, _ := m.Get(ds.keys[order[i]], math.MaxUint32); found {
			probeSink++
		}
	})
}

func probeBatch(vs values, ds *dataset, val []byte) {
	best(vs, "batch.put_ns", 20_000, func(i int) {
		var b batch.Batch
		b.Put(ds.keys[i], val)
		probeSink += b.Size()
	})
	var b batch.Batch
	const entries = 1000
	for i := 0; i < entries; i++ {
		b.Put(ds.keys[i], val)
	}
	vs.set("batch.iterate_ns_per_entry", bestOf(func() float64 {
		return perOp(20, func(int) {
			_ = b.Iterate(func(_ keys.Kind, k, v []byte) error { // built here, so it cannot be malformed
				probeSink += len(k) + len(v)
				return nil
			})
		}) / entries
	}), 20*entries)
}

func probeBloom(vs values, ds *dataset) {
	const n = 10_000
	var f bloom.Filter
	vs.set("bloom.build_ns_per_key", bestOf(func() float64 {
		return perOp(1, func(int) { f = bloom.New(ds.keys[:n], 10) }) / n
	}), n)
	// Half the queries are for keys in the filter, half are not.
	best(vs, "bloom.may_contain_ns", 2*n, func(i int) {
		if f.MayContain(ds.keys[i]) {
			probeSink++
		}
	})
}

func probeCache(vs values) {
	const blockSize, blocks = 4096, 1000
	block := make([]byte, blockSize)
	c := cache.New(8 << 20)
	for i := uint64(0); i < blocks; i++ {
		c.Insert(1, i*blockSize, block)
	}
	best(vs, "cache.get_hit_ns", 200_000, func(i int) {
		if _, ok := c.Get(1, uint64(i%blocks)*blockSize); ok {
			probeSink++
		}
	})
	// Every insert into the full cache evicts the oldest block.
	next := uint64(blocks)
	best(vs, "cache.insert_evict_ns", 50_000, func(int) {
		c.Insert(2, next*blockSize, block)
		next++
	})
}

func probeSmall(vs values) {
	thr := throttle.New(clock.Real{}, throttle.Config{})
	best(vs, "throttle.delay_call_ns", 500_000, func(int) { probeSink += int(thr.Delay(userBytesPerOp)) })
	pool := bgpool.New(clock.Real{}, 2)
	best(vs, "bgpool.acquire_release_ns", 200_000, func(int) {
		pool.Acquire(1)
		pool.Release()
	})
	var h histogram.Histogram
	best(vs, "histogram.record_ns", 500_000, func(i int) { h.Record(time.Duration(1000 + i%50_000)) })
}

func nullFS() *vfs.MemFS { return vfs.NewMem(storage.New(clock.Real{}, storage.Null())) }

func probeWAL(vs values, val []byte) error {
	f, err := nullFS().Create("000001.log")
	if err != nil {
		return err
	}
	w := wal.NewWriter(f)
	best(vs, "wal.add_record_ns", 20_000, func(int) {
		if err == nil {
			err = w.AddRecord(val)
		}
	})
	return err
}

// buildTable writes entries ids[0], ids[1], … (ascending) as one SST
// and returns ns per entry added.
func buildTable(fs vfs.FS, name string, ds *dataset, ids []int, val []byte) (nsPerEntry float64, size int64, err error) {
	f, err := fs.Create(name)
	if err != nil {
		return 0, 0, err
	}
	b := sstable.NewBuilder(f, sstable.DefaultBuilderOptions())
	t0 := time.Now()
	for _, id := range ids {
		if err := b.Add(keys.Make(ds.keys[id], 1, keys.KindSet), val); err != nil {
			return 0, 0, err
		}
	}
	if size, err = b.Finish(); err != nil {
		return 0, 0, err
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(len(ids))
	if err := f.Sync(); err != nil {
		return 0, 0, err
	}
	return ns, size, f.Close()
}

func openTable(fs vfs.FS, name string, size int64, num uint64, c *cache.Cache) (*sstable.Reader, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	return sstable.NewReader(f, size, num, c)
}

func probeSSTable(vs values, ds *dataset, rng *rand.Rand) error {
	fs := nullFS()
	val := ds.value(make([]byte, valueSize), 0, 1)
	ids := make([]int, tableEntries)
	for i := range ids {
		ids[i] = i
	}
	ns, size, err := buildTable(fs, "000001.sst", ds, ids, val)
	if err != nil {
		return err
	}
	vs.set("sstable.build_ns_per_entry", ns, tableEntries)

	var gerr error
	get := func(r *sstable.Reader) func(int) {
		return func(int) {
			_, _, _, found, err := r.Get(keys.SearchKey(ds.keys[rng.Intn(tableEntries)], math.MaxUint32))
			if err != nil || !found {
				gerr = fmt.Errorf("probe table lookup: found=%v err=%v", found, err)
			}
		}
	}
	cached, err := openTable(fs, "000001.sst", size, 1, cache.New(64<<20))
	if err != nil {
		return err
	}
	perOp(2*tableEntries, get(cached)) // fill the cache
	best(vs, "sstable.get_cached_ns", tableEntries, get(cached))
	uncached, err := openTable(fs, "000001.sst", size, 1, nil)
	if err != nil {
		return err
	}
	best(vs, "sstable.get_uncached_ns", tableEntries/2, get(uncached))
	it := cached.NewIter()
	best(vs, "sstable.iter_next_ns", tableEntries, func(i int) {
		if i == 0 {
			it.SeekToFirst()
		}
		probeSink += len(it.Value())
		it.Next()
	})
	if err := it.Close(); err != nil {
		return err
	}

	// Four tables with interleaved keys under one merging iterator, as a
	// compaction or a scan over Level 0 sees them.
	const ways = 4
	c := cache.New(64 << 20)
	var readers [ways]*sstable.Reader
	for w := 0; w < ways; w++ {
		part := make([]int, 0, tableEntries/ways)
		for id := w; id < tableEntries; id += ways {
			part = append(part, id)
		}
		name := manifest.SSTName(uint64(10 + w))
		_, sz, err := buildTable(fs, name, ds, part, val)
		if err != nil {
			return err
		}
		if readers[w], err = openTable(fs, name, sz, uint64(10+w), c); err != nil {
			return err
		}
	}
	merged := func() *iterator.Merging {
		var children []iterator.Iterator
		for _, r := range readers {
			children = append(children, r.NewIter())
		}
		return iterator.NewMerging(children...)
	}
	m := merged()
	for m.SeekToFirst(); m.Valid(); m.Next() { // fill the cache
	}
	best(vs, "iterator.merge_next_ns", tableEntries, func(i int) {
		if i == 0 {
			m.SeekToFirst()
		}
		probeSink += len(m.Value())
		m.Next()
	})
	best(vs, "iterator.merge_seek_ns", 5_000, func(int) {
		m.SeekGE(keys.SearchKey(ds.keys[rng.Intn(tableEntries)], math.MaxUint32))
		probeSink += len(m.Key())
	})
	if err := m.Close(); err != nil {
		return err
	}
	return gerr
}

func probeManifest(vs values, ds *dataset) error {
	set, err := manifest.Create(nullFS())
	if err != nil {
		return err
	}
	const edits = 200
	ns := perOp(edits, func(i int) {
		lo, hi := ds.keys[i*10], ds.keys[i*10+9]
		meta := &manifest.FileMeta{Num: set.AllocFileNum(), Size: 4 << 20,
			Smallest: keys.Make(lo, 1, keys.KindSet), Largest: keys.Make(hi, 1, keys.KindSet)}
		if e := set.LogAndApply(&manifest.Edit{Added: []manifest.AddedFile{{Level: 0, Meta: meta}}}); e != nil && err == nil {
			err = e
		}
	})
	vs.set("manifest.log_and_apply_us", usec(ns), edits)
	if err != nil {
		return err
	}
	return set.Close()
}

// probeSim times the simulation kernel itself: what the host pays for
// one virtual sleep, one condition hand-off between processes, and one
// device operation with four processes contending.
func probeSim(vs values) {
	const n = 20_000
	k := sim.New(simEpoch)
	k.Run(func() {
		vs.set("sim.sleep_wake_ns", perOp(n, func(int) { k.Sleep(time.Microsecond) }), n)
	})

	const procs = 4
	k = sim.New(simEpoch)
	k.Run(func() {
		mu := k.NewMutex()
		cv := k.NewCond(mu)
		turn := 0
		t0 := time.Now()
		clients(k, procs, func(c int) {
			mu.Lock()
			for turn < n {
				if turn%procs == c {
					turn++
					cv.Broadcast()
				} else {
					cv.Wait()
				}
			}
			mu.Unlock()
		})
		vs.set("sim.cond_handoff_ns", float64(time.Since(t0).Nanoseconds())/n, n)
	})

	k = sim.New(simEpoch)
	k.Run(func() {
		dev := storage.New(k, storage.XPoint())
		t0 := time.Now()
		clients(k, procs, func(int) {
			for i := 0; i < n/procs; i++ {
				dev.Read(4096)
			}
		})
		vs.set("sim.host_ns_per_device_op", float64(time.Since(t0).Nanoseconds())/n, n)
	})
}

// probeSharded compares a Put through a 2-shard store with a Put into
// a bare engine, and times a batch that spans both shards (two-phase
// commit). No workload drives the sharded store yet.
func probeSharded(vs values, ds *dataset, order []int) error {
	const puts = 8_000
	val := make([]byte, valueSize)
	bare, err := openHostStore(false)
	if err != nil {
		return err
	}
	bareNs := perOp(puts, func(i int) {
		id := uint32(order[i])
		if e := bare.db.Put(ds.keys[id], ds.value(val, id, 1)); e != nil && err == nil {
			err = e
		}
	})
	if cerr := bare.db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	sdb, err := shardeddb.Open(shardeddb.Options{
		Shards:     2,
		Boundaries: [][]byte{ds.keys[probeEntries/2]},
		Engine:     engine.DefaultOptions(nullFS()),
	})
	if err != nil {
		return err
	}
	shardedNs := perOp(puts, func(i int) {
		id := uint32(order[i])
		if e := sdb.Put(ds.keys[id], ds.value(val, id, 1)); e != nil && err == nil {
			err = e
		}
	})
	vs.set("shardeddb.put_overhead_ns", shardedNs-bareNs, puts)
	const crosses = 1_000
	ns := perOp(crosses, func(i int) {
		var b batch.Batch
		b.Put(ds.keys[i], ds.value(val, uint32(i), 2))
		b.Put(ds.keys[probeEntries-1-i], ds.value(val, uint32(probeEntries-1-i), 2))
		if e := sdb.Apply(&b, false); e != nil && err == nil {
			err = e
		}
	})
	vs.set("shardeddb.cross_batch_us", usec(ns), crosses)
	if cerr := sdb.Close(); err == nil {
		err = cerr
	}
	return err
}
