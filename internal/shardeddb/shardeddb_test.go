package shardeddb

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/events"
	"xpointdb/internal/obs"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// newTestStore returns a sharded store on a zero-latency in-memory FS
// with a small per-shard geometry so background work actually happens.
func newTestStore(t *testing.T, shards int, tweak func(*Options)) (*DB, *vfs.MemFS) {
	t.Helper()
	dev := storage.New(clock.Real{}, storage.Null())
	fs := vfs.NewMem(dev)
	db, err := Open(testOptions(fs, shards, tweak))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db, fs
}

func testOptions(fs vfs.FS, shards int, tweak func(*Options)) Options {
	eo := engine.DefaultOptions(fs)
	eo.MemtableSize = 32 << 10
	eo.TargetFileSize = 32 << 10
	eo.BaseLevelBytes = 128 << 10
	eo.ThrottleMode = throttle.ModeNone
	eo.SyncWAL = true
	opts := Options{Shards: shards, Engine: eo}
	if tweak != nil {
		tweak(&opts)
	}
	return opts
}

func reopenStore(t *testing.T, fs vfs.FS, shards int, tweak func(*Options)) *DB {
	t.Helper()
	db, err := Open(testOptions(fs, shards, tweak))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return db
}

func shardKey(shard int, db *DB, i int) []byte {
	start, _ := db.ShardRange(shard)
	if len(start) == 0 {
		start = []byte{1}
	}
	return append(append([]byte{}, start...), []byte(fmt.Sprintf("key-%06d", i))...)
}

func TestShardedPutGetSmoke(t *testing.T) {
	db, _ := newTestStore(t, 4, nil)
	defer db.Close()

	if len(db.Engines()) != 4 {
		t.Fatalf("len(Engines()) = %d", len(db.Engines()))
	}
	// One key per shard, routed by range.
	for s := 0; s < 4; s++ {
		k := shardKey(s, db, s)
		if got := db.ShardForKey(k); got != s {
			t.Fatalf("ShardForKey(%q) = %d, want %d", k, got, s)
		}
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", s))); err != nil {
			t.Fatalf("Put shard %d: %v", s, err)
		}
	}
	for s := 0; s < 4; s++ {
		v, err := db.Get(shardKey(s, db, s))
		if err != nil {
			t.Fatalf("Get shard %d: %v", s, err)
		}
		if string(v) != fmt.Sprintf("v%d", s) {
			t.Fatalf("Get shard %d = %q", s, v)
		}
	}
	if _, err := db.Get([]byte("nope")); err != ErrNotFound {
		t.Fatalf("missing Get = %v, want ErrNotFound", err)
	}
	if err := db.Put([]byte{0, 'x'}, []byte("v")); err != ErrReservedKey {
		t.Fatalf("reserved Put = %v, want ErrReservedKey", err)
	}
}

func TestShardedRoutingBoundaries(t *testing.T) {
	db, _ := newTestStore(t, 4, nil)
	defer db.Close()
	// A key exactly at a boundary belongs to the right-hand shard.
	for i, b := range db.boundaries {
		if got := db.ShardForKey(b); got != i+1 {
			t.Fatalf("ShardForKey(boundary %d) = %d, want %d", i, got, i+1)
		}
		below := append(append([]byte{}, b...), 0) // just above boundary
		if got := db.ShardForKey(below); got != i+1 {
			t.Fatalf("ShardForKey(boundary+0) = %d, want %d", got, i+1)
		}
	}
}

func TestShardedMultiGet(t *testing.T) {
	db, _ := newTestStore(t, 4, nil)
	defer db.Close()
	var keys [][]byte
	for s := 0; s < 4; s++ {
		for i := 0; i < 8; i++ {
			k := shardKey(s, db, i)
			keys = append(keys, k)
			if i%2 == 0 {
				if err := db.Put(k, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	vals, errs := db.MultiGet(keys...)
	for i, k := range keys {
		if i%2 == 0 {
			if errs[i] != nil || !bytes.Equal(vals[i], k) {
				t.Fatalf("MultiGet[%d] = %q, %v", i, vals[i], errs[i])
			}
		} else if errs[i] != ErrNotFound {
			t.Fatalf("MultiGet[%d] err = %v, want ErrNotFound", i, errs[i])
		}
	}
}

func TestCrossShardBatchAtomicity(t *testing.T) {
	db, fs := newTestStore(t, 4, nil)

	// Batch touching all four shards.
	b := new(batch.Batch)
	for s := 0; s < 4; s++ {
		b.Put(shardKey(s, db, 0), []byte("atomic"))
	}
	if err := db.Apply(b, true); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	cross, aborts, _, _ := db.TxnStats()
	if cross != 1 || aborts != 0 {
		t.Fatalf("TxnStats = %d committed, %d aborted", cross, aborts)
	}
	for s := 0; s < 4; s++ {
		if v, err := db.Get(shardKey(s, db, 0)); err != nil || string(v) != "atomic" {
			t.Fatalf("shard %d: %q, %v", s, v, err)
		}
	}

	// Prepare records must have been cleaned up: the only reserved key
	// left on any shard's raw iterator is the commit record, which stays
	// in the lowest participant until a GC pass deletes it.
	for s := 0; s < 4; s++ {
		it, err := db.Engines()[s].NewIter()
		if err != nil {
			t.Fatal(err)
		}
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if isInternalKey(it.Key()) && !(s == 0 && bytes.HasPrefix(it.Key(), commitPrefix)) {
				t.Fatalf("shard %d: leftover internal key %q", s, it.Key())
			}
		}
		it.Close()
	}

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: everything still there, no recovery work needed.
	db2 := reopenStore(t, fs, 4, nil)
	defer db2.Close()
	for s := 0; s < 4; s++ {
		if v, err := db2.Get(shardKey(s, db2, 0)); err != nil || string(v) != "atomic" {
			t.Fatalf("reopen shard %d: %q, %v", s, v, err)
		}
	}
	_, _, rolledForward, abortedAtOpen := db2.TxnStats()
	if rolledForward != 0 || abortedAtOpen != 0 {
		t.Fatalf("clean reopen did recovery work: rf=%d ab=%d", rolledForward, abortedAtOpen)
	}
}

func TestShardedIterAcrossShards(t *testing.T) {
	db, _ := newTestStore(t, 4, nil)
	defer db.Close()

	var want []string
	for s := 0; s < 4; s++ {
		for i := 0; i < 20; i++ {
			k := shardKey(s, db, i)
			want = append(want, string(k))
			if err := db.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A cross-shard batch, so prepare/sync bookkeeping keys exist and
	// must be filtered out.
	b := new(batch.Batch)
	b.Put(shardKey(0, db, 99), []byte("v"))
	b.Put(shardKey(3, db, 99), []byte("v"))
	if err := db.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	want = append(want, string(shardKey(0, db, 99)), string(shardKey(3, db, 99)))
	sortStrings(want)

	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iter error: %v", err)
	}
	if !equalStrings(got, want) {
		t.Fatalf("forward scan: got %d keys, want %d\ngot[0..5]=%v\nwant[0..5]=%v",
			len(got), len(want), head(got, 5), head(want, 5))
	}

	// Reverse.
	var rev []string
	for it.SeekToLast(); it.Valid(); it.Prev() {
		rev = append(rev, string(it.Key()))
	}
	reverseStrings(rev)
	if !equalStrings(rev, want) {
		t.Fatalf("reverse scan mismatch: got %d keys, want %d", len(rev), len(want))
	}

	// Seeks that land mid-shard and cross boundaries.
	it.SeekGE(shardKey(1, db, 19))
	if !it.Valid() || string(it.Key()) != string(shardKey(1, db, 19)) {
		t.Fatalf("SeekGE mid-shard: %q valid=%v", it.Key(), it.Valid())
	}
	it.Next() // into shard 2's first key
	if !it.Valid() || db.ShardForKey(it.Key()) != 2 {
		t.Fatalf("Next across boundary: %q", it.Key())
	}
	it.SeekLT(shardKey(2, db, 0))
	if !it.Valid() || db.ShardForKey(it.Key()) != 1 {
		t.Fatalf("SeekLT across boundary: %q", it.Key())
	}
}

// TestIterPinsOnlyShardsReached checks that a scan holds only the shards
// it has reached: with an iterator positioned in shard 0, shard 3 can
// flush and compact, and the table that compaction makes obsolete is
// deleted while the iterator is still open. A scan's view of shard 3 is
// fixed by its snapshot sequence, not by a SuperVersion pin taken up
// front.
func TestIterPinsOnlyShardsReached(t *testing.T) {
	db, fs := newTestStore(t, 4, nil)
	defer db.Close()
	tables := func() map[string]bool {
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, n := range names {
			if strings.HasPrefix(n, "shard-003/") && strings.HasSuffix(n, ".sst") {
				out[n] = true
			}
		}
		return out
	}
	for _, s := range []int{0, 3} {
		if err := db.Put(shardKey(s, db, 1), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := tables()
	if len(before) == 0 {
		t.Fatal("shard 3 has no table after Flush")
	}

	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.SeekGE(shardKey(0, db, 0)); !it.Valid() || db.ShardForKey(it.Key()) != 0 {
		t.Fatalf("SeekGE into shard 0: %q valid=%v", it.Key(), it.Valid())
	}

	if err := db.Put(shardKey(3, db, 1), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := db.Engines()[3].CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	after := tables()
	for n := range before {
		if after[n] {
			t.Errorf("%s is still on disk after shard 3 compacted it away under an iterator in shard 0", n)
		}
	}

	// The iterator still reads shard 3 as of its creation.
	if it.Next(); !it.Valid() || string(it.Key()) != string(shardKey(3, db, 1)) || string(it.Value()) != "old" {
		t.Fatalf("Next into shard 3: %q=%q valid=%v err=%v", it.Key(), it.Value(), it.Valid(), it.Error())
	}
}

func TestShardedSnapshot(t *testing.T) {
	db, _ := newTestStore(t, 4, nil)
	defer db.Close()

	for s := 0; s < 4; s++ {
		if err := db.Put(shardKey(s, db, 0), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for s := 0; s < 4; s++ {
		if err := db.Put(shardKey(s, db, 0), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 4; s++ {
		v, err := snap.Get(shardKey(s, db, 0))
		if err != nil || string(v) != "old" {
			t.Fatalf("snapshot shard %d = %q, %v", s, v, err)
		}
		v, err = db.Get(shardKey(s, db, 0))
		if err != nil || string(v) != "new" {
			t.Fatalf("live shard %d = %q, %v", s, v, err)
		}
	}
	it, err := snap.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Value()) != "old" {
			t.Fatalf("snapshot iter saw %q", it.Value())
		}
		n++
	}
	if n != 4 {
		t.Fatalf("snapshot iter saw %d keys, want 4", n)
	}
}

func TestSharedCacheAndPoolAreShared(t *testing.T) {
	db, _ := newTestStore(t, 4, func(o *Options) {
		o.Engine.BlockCacheSize = 1 << 20
		o.PoolSlots = 2
	})
	defer db.Close()

	// Write enough into every shard to force flushes through the
	// shared pool, then read back through the shared cache.
	val := bytes.Repeat([]byte("x"), 512)
	for s := 0; s < 4; s++ {
		for i := 0; i < 200; i++ {
			if err := db.Put(shardKey(s, db, i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		for i := 0; i < 200; i++ {
			if _, err := db.Get(shardKey(s, db, i)); err != nil {
				t.Fatalf("shard %d key %d: %v", s, i, err)
			}
		}
	}
	sh := db.Shared()
	hits, misses := sh.Blocks.Stats()
	if used := sh.Blocks.Used(); used == 0 || hits+misses == 0 {
		t.Fatalf("shared cache unused: used=%d hits=%d misses=%d", used, hits, misses)
	}
	if _, _, grants := sh.Pool.Stats(); grants == 0 {
		t.Fatal("shared pool never granted a token")
	}
	if sh.Pool.Size() != 2 {
		t.Fatalf("pool size = %d, want 2", sh.Pool.Size())
	}
}

func TestShardsOneBehavesLikeEngine(t *testing.T) {
	db, fs := newTestStore(t, 1, nil)
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Single-shard batches bypass 2PC entirely.
	b := new(batch.Batch)
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("z"), []byte("2"))
	if err := db.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	if cross, _, _, _ := db.TxnStats(); cross != 0 {
		t.Fatalf("single-shard store ran %d cross-shard txns", cross)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := reopenStore(t, fs, 1, nil)
	defer db2.Close()
	if v, err := db2.Get([]byte("z")); err != nil || string(v) != "2" {
		t.Fatalf("reopen: %q, %v", v, err)
	}
}

func TestShardedPrometheusParses(t *testing.T) {
	db, _ := newTestStore(t, 3, nil)
	defer db.Close()
	for s := 0; s < 3; s++ {
		if err := db.Put(shardKey(s, db, 0), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	b := new(batch.Batch)
	b.Put(shardKey(0, db, 1), []byte("v"))
	b.Put(shardKey(2, db, 1), []byte("v"))
	if err := db.Apply(b, true); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	db.WritePrometheus(&buf)
	fams, err := obs.ParsePromText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParsePromText: %v\n%s", err, buf.String())
	}
	byName := map[string]*obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	// Per-shard facts carry the bare store's family name and one sample
	// per shard; which families exist is pinned by TestMetricsCatalogue
	// and TestShardedFamiliesMatchBare.
	var counts []obs.PromSample
	if wl := byName["xpointdb_write_latency_seconds"]; wl != nil {
		for _, s := range wl.Samples {
			if strings.HasSuffix(s.Name, "_count") {
				counts = append(counts, s)
			}
		}
	}
	if len(counts) != 3 {
		t.Fatalf("xpointdb_write_latency_seconds_count = %+v, want one sample per shard", counts)
	}
	var total float64
	for i, s := range counts {
		if s.Labels["shard"] != fmt.Sprint(i) {
			t.Fatalf("sample %d has labels %v", i, s.Labels)
		}
		total += s.Value
	}
	if total < 5 {
		t.Fatalf("write_latency_seconds_count sums to %v across shards, want at least the 5 writes", total)
	}
	if v := byName["xpointdb_sharded_txn_committed_total"].Samples[0].Value; v != 1 {
		t.Fatalf("txn_committed = %v, want 1", v)
	}
	if !strings.Contains(db.StatsReport(), "cross-shard txns") {
		t.Fatal("StatsReport missing shared-resource summary")
	}
}

// TestStatsReportPrintsSharedLinesOnce: the one controller, pool, cache
// and space budget are rendered once, in the store-wide section, not
// again under every shard; every counter is rendered once, store-wide;
// what a shard has of its own (health, LSM shape, level table) still
// appears per shard.
func TestStatsReportPrintsSharedLinesOnce(t *testing.T) {
	db, _ := newTestStore(t, 3, func(o *Options) { o.Engine.MaxAllowedSpace = 1 << 30 })
	defer db.Close()
	for s := 0; s < 3; s++ {
		if err := db.Put(shardKey(s, db, 0), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rep := db.StatsReport()
	for line, want := range map[string]int{
		"\nxpointdb_write_controller_state{": 1, "\nxpointdb_bgpool_size ": 1, "\nxpointdb_space_budget_bytes ": 1,
		"\nxpointdb_write_latency_seconds n=3 [1 1 1] mean=": 1, "\nxpointdb_wal_sync_latency_seconds n=3 [1 1 1] mean=": 1, "** Metrics": 1,
		"\nhealth         :": 3, "\nlsm            :": 3, "** Per-level compaction stats **": 3,
	} {
		if got := strings.Count(rep, line); got != want {
			t.Errorf("%q appears %d times in a 3-shard report, want %d:\n%s", line, got, want, rep)
		}
	}
}

// TestStatsHistogramCountsUnderLoad: while writers and readers record
// into every shard's latency histograms, each histogram line of /stats
// prints an n that its per-shard brackets sum to — each shard's count
// and what is merged into n come from one snapshot of that shard.
func TestStatsHistogramCountsUnderLoad(t *testing.T) {
	const shards = 3
	db, _ := newTestStore(t, shards, func(o *Options) {
		o.Engine.DisableScrub = true
		o.Engine.SyncWAL = false
	})
	defer db.Close()
	line := regexp.MustCompile(`(?m)^(xpointdb_\S+) n=(\d+) \[([\d ]+)\]`)
	check := func() (lines int) {
		t.Helper()
		ms := line.FindAllStringSubmatch(db.StatsReport(), -1)
		for _, m := range ms {
			var n, sum int64
			fmt.Sscan(m[2], &n)
			for _, f := range strings.Fields(m[3]) {
				var v int64
				fmt.Sscan(f, &v)
				sum += v
			}
			if sum != n {
				t.Fatalf("%s: n=%d, brackets [%s] sum to %d", m[1], n, m[3], sum)
			}
		}
		return len(ms)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	val := bytes.Repeat([]byte("x"), 64)
	for s := 0; s < shards; s++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.Put(shardKey(s, db, i%500), val); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Get(shardKey(s, db, i%500)); err != nil && err != engine.ErrNotFound {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200 && !t.Failed(); i++ {
		check()
	}
	halt()
	if check() == 0 {
		t.Fatal("no per-shard histogram line in /stats")
	}
}

// TestStatsTotalsMatchShards: every counter, and every histogram's
// count, of a sharded store's /stats section is a store-wide total that
// equals the sum of its per-shard brackets, and each bracket is that
// shard's /metrics sample (a histogram's _count) — and every counter or
// histogram /metrics reports as non-zero for some shard is there.
func TestStatsTotalsMatchShards(t *testing.T) {
	db, _ := newTestStore(t, 3, func(o *Options) { o.Engine.DisableScrub = true })
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 256)
	for s := 0; s < 3; s++ {
		for i := 0; i < 50*(s+1); i++ {
			if err := db.Put(shardKey(s, db, i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := new(batch.Batch)
	b.Put(shardKey(0, db, 1000), val)
	b.Put(shardKey(2, db, 1000), val)
	if err := db.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := db.Get(shardKey(i%3, db, i)); err != nil {
			t.Fatal(err)
		}
	}

	// counters maps "name{labels}" to the per-shard values: from the
	// exposition (shard label dropped) or from /stats brackets.
	fromMetrics := func() map[string][]float64 {
		out := map[string][]float64{}
		for _, f := range scrape(t, db.WritePrometheus) {
			if f.Type != "counter" && f.Type != "histogram" || strings.HasPrefix(f.Name, "xpointdb_level_") {
				continue
			}
			for _, smp := range f.Samples {
				shard, ok := smp.Labels["shard"]
				if !ok || f.Type == "histogram" && !strings.HasSuffix(smp.Name, "_count") {
					continue
				}
				var labels []string
				for k, v := range smp.Labels {
					if k != "shard" {
						labels = append(labels, fmt.Sprintf("%s=%q", k, v))
					}
				}
				sortStrings(labels)
				key := f.Name // a histogram's _count renders under its family name
				if len(labels) > 0 {
					key += "{" + strings.Join(labels, ",") + "}"
				}
				if out[key] == nil {
					out[key] = make([]float64, 3)
				}
				var i int
				fmt.Sscan(shard, &i)
				out[key][i] = smp.Value
			}
		}
		return out
	}
	type statLine struct {
		total  float64
		shards []float64
	}
	fromStats := func() map[string]statLine {
		out := map[string]statLine{}
		for _, line := range strings.Split(db.StatsReport(), "\n") {
			name, rest, _ := strings.Cut(line, " ")
			rest = strings.TrimPrefix(rest, "n=") // a histogram's count
			total, brackets, ok := strings.Cut(rest, " [")
			if !strings.HasPrefix(name, "xpointdb_") || !ok {
				continue // a gauge or not a metric line
			}
			var l statLine
			fmt.Sscan(total, &l.total)
			brackets, _, _ = strings.Cut(brackets, "]")
			for _, v := range strings.Fields(brackets) {
				var f float64
				fmt.Sscan(v, &f)
				l.shards = append(l.shards, f)
			}
			out[name] = l
		}
		return out
	}
	// Background work may land between the two renderings; retry until
	// /stats is the same before and after the scrape.
	var metrics map[string][]float64
	var stats map[string]statLine
	for try := 0; ; try++ {
		stats = fromStats()
		metrics = fromMetrics()
		if fmt.Sprint(stats) == fmt.Sprint(fromStats()) {
			break
		}
		if try == 50 {
			t.Fatal("counters never held still")
		}
		time.Sleep(20 * time.Millisecond)
	}

	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for key, perShard := range metrics {
		var sum float64
		for _, v := range perShard {
			sum += v
		}
		l, ok := stats[key]
		switch {
		case sum == 0 && ok:
			t.Errorf("%s: all shards zero on /metrics, yet /stats renders %v", key, l)
		case sum == 0:
		case !ok:
			t.Errorf("%s: %v on /metrics, no store-wide line on /stats", key, perShard)
		case len(l.shards) != 3:
			t.Errorf("%s: /stats brackets %v, want one value per shard", key, l.shards)
		default:
			var bracketSum float64
			for i, v := range l.shards {
				bracketSum += v
				if !near(v, perShard[i]) {
					t.Errorf("%s: shard %d is %v on /stats, %v on /metrics", key, i, v, perShard[i])
				}
			}
			if !near(l.total, bracketSum) {
				t.Errorf("%s: store-wide %v, brackets sum to %v", key, l.total, bracketSum)
			}
		}
	}
	if len(stats) < 10 {
		t.Errorf("only %d counter lines on a busy 3-shard store:\n%s", len(stats), db.StatsReport())
	}
}

func TestShardedEventsCarryShardTag(t *testing.T) {
	sink := eventsCollector{tags: map[int]int{}}
	db, _ := newTestStore(t, 2, func(o *Options) {
		o.Engine.EventListener = &sink
	})
	defer db.Close()

	val := bytes.Repeat([]byte("x"), 512)
	for s := 0; s < 2; s++ {
		for i := 0; i < 100; i++ {
			if err := db.Put(shardKey(s, db, i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Shared().Plane.Sync()
	if sink.tag(1) == 0 || sink.tag(2) == 0 {
		t.Fatalf("events not tagged per shard: %v", sink.tags)
	}
	if sink.tag(0) != 0 {
		t.Fatalf("untagged events leaked through: %v", sink.tags)
	}
}

type eventsCollector struct {
	mu   sync.Mutex
	tags map[int]int
}

func (c *eventsCollector) Emit(e events.Event) {
	c.mu.Lock()
	c.tags[e.Shard]++
	c.mu.Unlock()
}

func (c *eventsCollector) tag(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tags[i]
}

// Small helpers (avoid importing sort/slices piecemeal in each test).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func reverseStrings(s []string) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func head(s []string, n int) []string {
	if len(s) < n {
		return s
	}
	return s[:n]
}
