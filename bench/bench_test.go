package main

import (
	"bytes"
	"testing"

	"xpointdb/internal/vfs"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10_000, 99.9}, {1_000_000, 99.999}, {9_999_999, 99.999}, {10_000_000, 99.9999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 62.5: 35, 100: 50} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	hash := func(seed int64) uint64 {
		return streamHash(
			opStream(seed, "mixed", 0, 2, 0, hostKeys, true),
			opStream(seed, "mixed", 1, 2, 0, hostKeys, false))
	}
	if hash(7) != hash(7) {
		t.Error("the same seed gave two different op streams")
	}
	if hash(7) == hash(8) {
		t.Error("two seeds gave the same op streams")
	}
	a, b := newDataset(7, 100), newDataset(7, 100)
	if !bytes.Equal(a.pool, b.pool) {
		t.Error("the same seed gave two different value pools")
	}
	if bytes.Equal(a.pool, newDataset(8, 100).pool) {
		t.Error("two seeds gave the same value pool")
	}
}

func TestOwnStreamsShareNoKey(t *testing.T) {
	const n = 3
	for c := 0; c < n; c++ {
		for _, id := range opStream(1, "w", c, n, 0, 1000, true)[:10_000] {
			if int(id)%n != c || id >= 1000 {
				t.Fatalf("client %d of %d drew key %d", c, n, id)
			}
		}
	}
}

func TestValueCheck(t *testing.T) {
	ds := newDataset(3, 10)
	v := ds.value(make([]byte, valueSize), 4, 2)
	if !ds.check(4, v, 2, 2) || !ds.check(4, v, 1, 3) {
		t.Error("a generated value failed its own check")
	}
	if ds.check(4, v, 3, 9) || ds.check(4, v, 0, 1) {
		t.Error("a value outside the version window passed")
	}
	if ds.check(5, v, 0, 9) {
		t.Error("a value passed under another key")
	}
	v[valueSize-1] ^= 1
	if ds.check(4, v, 0, 9) {
		t.Error("a damaged value passed")
	}
}

// session drives a small single-client engine session and returns
// every file it left behind.
func session(t *testing.T, traced bool) map[string][]byte {
	t.Helper()
	ds := newDataset(1, 4000)
	st, err := openHostStore(traced)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		st.tfs.on.Store(true)
	}
	r := &run{ds: ds, rec: &recorder{}}
	c := newClient(0, opPut, opStream(1, "session", 0, 1, 0, 4000, true), 4000)
	c.start(traced)
	for i := 0; i < 3000; i++ {
		c.do(r, st)
	}
	if err := st.db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.do(r, st)
	}
	g := newClient(1, opGet, c.stream, 3100)
	g.start(traced)
	for i := 0; i < 3100; i++ {
		g.do(r, st)
	}
	if c.failed+g.failed > 0 {
		t.Fatalf("%d puts and %d gets failed", c.failed, g.failed)
	}
	if err := st.db.Close(); err != nil {
		t.Fatal(err)
	}
	if traced && st.tfs.totals().ctr[classSST][fsWrite].bytes == 0 {
		t.Fatal("traceFS saw no SST write")
	}
	return dump(t, st.mem)
}

func dump(t *testing.T, fs vfs.FS) map[string][]byte {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range names {
		size, err := fs.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, size)
		if size > 0 {
			if _, err := f.ReadAt(b, 0); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		files[name] = b
	}
	return files
}

func TestTraceFSIsTransparent(t *testing.T) {
	plain, traced := session(t, false), session(t, true)
	if len(plain) == 0 || len(plain) != len(traced) {
		t.Fatalf("%d files without traceFS, %d with", len(plain), len(traced))
	}
	for name, b := range plain {
		if !bytes.Equal(b, traced[name]) {
			t.Errorf("%s differs with traceFS in place", name)
		}
	}
}

// TestEmitterMatchesSpec checks that what the code measures and what
// BENCHMARK.json lists are the same names: every reading is listed,
// and every listed metric has a reading.
func TestEmitterMatchesSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which has no runner", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloadFuncs) {
		t.Errorf("%d workloads listed, %d runners", len(sp.Workloads), len(workloadFuncs))
	}

	untraced := (&run{workload: "fill"}).outcome()
	traced := (&run{workload: "sim_xpoint_mixed", sim: true, traced: true, refRates: []float64{1}}).outcome()
	traced.vals.set("bench.canary_ms", 1, 1)
	if err := runProbes(traced.vals, 1); err != nil {
		t.Fatal(err)
	}
	for _, o := range []*outcome{untraced, traced} {
		l, err := sp.line(o, false)
		if err != nil {
			t.Error(err)
		}
		for name := range l.Metrics {
			if _, ok := o.vals[name]; !ok {
				t.Errorf("BENCHMARK.json lists %q, which nothing measures", name)
			}
		}
	}
	for _, name := range []string{"skiplist.insert_ns", "sstable.get_uncached_ns", "iterator.merge_next_ns", "sim.cond_handoff_ns", "shardeddb.cross_batch_us"} {
		if traced.vals[name].v <= 0 {
			t.Errorf("probe %s read %v", name, traced.vals[name].v)
		}
	}
}
