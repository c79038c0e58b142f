package engine

import (
	"time"

	"xpointdb/internal/bloom"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/memtable"
	"xpointdb/internal/sstable"
)

// Get returns the value stored under key, or ErrNotFound. The lookup
// order is the LSM read path the paper analyzes: memtable, immutable
// memtables (newest first), every overlapping Level-0 file from newest
// to oldest, then one file per deeper level — with Bloom filters and
// the block cache short-circuiting device reads.
func (db *DB) Get(key []byte) ([]byte, error) {
	return db.GetWithPerf(key, nil)
}

// GetWithPerf is Get with a per-operation stage breakdown accumulated
// into pc. A nil pc collects nothing unless Options.CollectPerf is
// set, in which case the engine times the lookup internally; either
// way the per-op deltas feed the Metrics Stage* histograms.
func (db *DB) GetWithPerf(key []byte, pc *PerfContext) ([]byte, error) {
	// The snapshot sequence is loaded BEFORE the SuperVersion is
	// pinned. Any bundle current at pin time holds every write visible
	// at a sequence loaded earlier (newer bundles are supersets), so
	// this order can never miss committed data; the reverse order
	// could read a sequence the pinned bundle predates.
	return db.timedGet(key, db.visibleSeq.Load(), pc)
}

// timedGet is the one body every point read runs, live or through a
// Snapshot: the lookup at snap, its end-to-end latency, the read count
// case study B's adaptive worker classifies the load by, stage
// attribution and slow-op tracing.
func (db *DB) timedGet(key []byte, snap uint64, pc *PerfContext) ([]byte, error) {
	var before PerfContext
	if pc == nil {
		if db.opts.CollectPerf || db.opts.SlowOpThreshold > 0 {
			pc = &PerfContext{}
		}
	} else {
		before = *pc
	}
	start := db.clk.Now()
	v, err := db.getAt(key, snap, pc)
	lat := db.clk.Now().Sub(start)
	db.metrics.GetLatency.Record(lat)
	if db.opts.AdaptiveL0 {
		db.windowReads.Add(1)
	}
	if pc != nil {
		d := pc.diff(&before)
		db.metrics.recordReadPerf(&d)
		if t := db.opts.SlowOpThreshold; t > 0 && lat >= t {
			db.emitSlowOp("get", lat, 0, &d)
		}
	}
	return v, err
}

// getAt reads key as of sequence snapshot snap against a pinned
// SuperVersion: one atomic load + ref, no db.mu. The pin keeps every
// SST the version references alive (deletion is reference-driven), so
// the lookup can never observe a vanished file — the ErrNotExist
// retry loop that used to paper over that race is gone.
func (db *DB) getAt(key []byte, snap uint64, pc *PerfContext) ([]byte, error) {
	sv := db.acquireSV()
	if sv == nil {
		return nil, ErrClosed
	}
	defer db.releaseSV(sv)
	mem, imms, ver := sv.mem, sv.imms, sv.ver

	// 1. Mutable memtable.
	var t0 time.Time
	if pc != nil {
		t0 = db.clk.Now()
	}
	if val, ok, err := db.getFromMem(mem, key, snap, &db.metrics.GetHitMemtable); ok {
		if pc != nil {
			pc.MemtableProbe += db.clk.Now().Sub(t0)
		}
		return val, err
	}
	if pc != nil {
		now := db.clk.Now()
		pc.MemtableProbe += now.Sub(t0)
		t0 = now
	}
	// 2. Immutable memtables, newest first.
	for i := len(imms) - 1; i >= 0; i-- {
		if val, ok, err := db.getFromMem(imms[i].mem, key, snap, &db.metrics.GetHitImmutable); ok {
			if pc != nil {
				pc.ImmutableProbe += db.clk.Now().Sub(t0)
			}
			return val, err
		}
	}
	if pc != nil && len(imms) > 0 {
		pc.ImmutableProbe += db.clk.Now().Sub(t0)
	}
	// 3. The tree.
	return db.getFromVersion(ver, key, snap, pc)
}

// getFromMem probes one memtable. ok=true means the search terminated
// here (hit or tombstone).
func (db *DB) getFromMem(mem *memtable.Memtable, key []byte, snap uint64, hitCounter interface{ Add(int64) int64 }) ([]byte, bool, error) {
	val, found, deleted, cmps := mem.Get(key, snap)
	if db.cost != nil {
		db.cost.ChargeCompares(db.clk, cmps)
	}
	if !found {
		return nil, false, nil
	}
	hitCounter.Add(1)
	if deleted {
		return nil, true, ErrNotFound
	}
	return val, true, nil
}

// getFromVersion searches the on-disk tree.
func (db *DB) getFromVersion(v *manifest.Version, key []byte, snap uint64, pc *PerfContext) ([]byte, error) {
	var buf [64]byte
	search := keys.AppendSearchKey(buf[:0], key, snap)
	hash := bloom.Hash(key) // one hash serves every table's filter

	// Level 0: files may overlap; probe every covering file newest
	// first (Files[0] is oldest first, so walk it backwards). This loop
	// is the read amplification of Finding #2 — its cost scales with
	// the number of Level-0 files.
	l0 := v.Files[0]
	for i := len(l0) - 1; i >= 0; i-- {
		f := l0[i]
		if !f.ContainsUserKey(key) {
			continue
		}
		var t0 time.Time
		if pc != nil {
			pc.L0Probes++
			t0 = db.clk.Now()
		}
		val, ok, err := db.probeTable(f, hash, search, &db.metrics.GetHitL0, pc)
		if pc != nil {
			pc.L0ProbeTime += db.clk.Now().Sub(t0)
		}
		db.metrics.L0TablesProbed.Add(1)
		if err != nil {
			return nil, err
		}
		if ok {
			if val == nil {
				return nil, ErrNotFound
			}
			return val, nil
		}
	}

	// Levels 1+: at most one file per level can contain the key.
	for l := 1; l < manifest.NumLevels; l++ {
		f, cmps := v.FileForKey(l, key)
		if db.cost != nil {
			db.cost.ChargeCompares(db.clk, cmps)
		}
		if f == nil {
			continue
		}
		var t0 time.Time
		if pc != nil {
			pc.DeepProbes++
			t0 = db.clk.Now()
		}
		val, ok, err := db.probeTable(f, hash, search, &db.metrics.GetHitDeep, pc)
		if pc != nil {
			pc.DeepProbeTime += db.clk.Now().Sub(t0)
		}
		if err != nil {
			return nil, err
		}
		if ok {
			if val == nil {
				return nil, ErrNotFound
			}
			return val, nil
		}
	}
	db.metrics.GetMisses.Add(1)
	return nil, ErrNotFound
}

// probeTable searches one SST for search, the lookup's seek key; hash
// is the bloom.Hash of its user key. ok=true terminates the search; a
// nil value with ok=true is a tombstone.
func (db *DB) probeTable(f *manifest.FileMeta, hash uint32, search []byte, hitCounter interface{ Add(int64) int64 }, pc *PerfContext) (val []byte, ok bool, err error) {
	r, err := db.tables.get(f)
	if err != nil {
		// Opening the table may itself hit corruption (footer, index or
		// filter block damage).
		db.maybeReportCorruption(err)
		return nil, false, err
	}
	if db.cost != nil {
		db.cost.ChargeBloom(db.clk, 1)
	}
	if pc != nil {
		pc.BloomChecks++
	}
	if !r.MayContainHash(hash) {
		db.metrics.BloomSkips.Add(1)
		if pc != nil {
			pc.BloomSkips++
		}
		return nil, false, nil
	}
	if db.cost != nil {
		db.cost.ChargeTableProbe(db.clk)
	}
	var st sstable.ProbeStats
	var t0 time.Time
	if pc != nil {
		t0 = db.clk.Now()
	}
	value, kind, found, err := r.Lookup(search, &st)
	if pc != nil {
		// Block reads only happen on cache misses, so the probe time
		// on a miss approximates the device read portion.
		if st.CacheMisses > 0 {
			pc.BlockReadTime += db.clk.Now().Sub(t0)
		}
		pc.BlockCacheHits += st.CacheHits
		pc.BlockCacheMisses += st.CacheMisses
	}
	if db.cost != nil {
		db.cost.ChargeCompares(db.clk, st.Cmps)
	}
	if err != nil {
		// A checksum failure detected on the read path: the read still
		// fails (never serve unverified bytes), but the damage also
		// routes to the quarantine/repair machinery.
		db.maybeReportCorruption(err)
		return nil, false, err
	}
	if !found {
		return nil, false, nil
	}
	hitCounter.Add(1)
	if kind == keys.KindDelete {
		return nil, true, nil // tombstone
	}
	return value, true, nil
}

// Has reports whether key exists.
func (db *DB) Has(key []byte) (bool, error) {
	_, err := db.Get(key)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}
