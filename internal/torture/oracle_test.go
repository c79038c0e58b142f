package torture

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xpointdb/internal/batch"
	"xpointdb/internal/engine"
	"xpointdb/internal/keys"
	"xpointdb/internal/vfs"
)

// fakeStore is an in-memory store behind the store seam. Honest, it
// keeps every applied batch across reopens (and records the bytes of
// each, for the determinism test); with lie set it misbehaves in one
// specific way the oracle must catch.
type fakeStore struct {
	n, universe int
	lie         string

	data  map[string]string
	prev  map[string]string // value each key held before its latest write
	log   []fakeBatch
	reprs [][]byte
	opens int
}

type fakeBatch struct {
	muts []mut
	sync bool
}

func (f *fakeStore) shardOf(key string) int {
	if s, ok := strings.CutPrefix(key, "@cut"); ok {
		n, _ := strconv.Atoi(s)
		return n
	}
	i, _ := strconv.Atoi(strings.TrimPrefix(key, "k")) // anything else: shard 0
	return i * f.n / f.universe
}

func (f *fakeStore) put(m mut) {
	if old, ok := f.data[m.key]; ok {
		f.prev[m.key] = old
	}
	if m.del {
		delete(f.data, m.key)
	} else {
		f.data[m.key] = m.val
	}
}

// open is honest the first time. A reopen rebuilds the state from the
// batch log, which is where the recovery lies live.
func (f *fakeStore) open(vfs.FS) error {
	f.opens++
	if f.opens != 2 || (f.lie != "drop-synced" && f.lie != "half-cross") {
		if f.data == nil {
			f.data, f.prev = map[string]string{}, map[string]string{}
		}
		return nil
	}
	last := -1 // the batch the lie is about
	for i, b := range f.log {
		shards := map[int]bool{}
		for _, m := range b.muts {
			shards[f.shardOf(m.key)] = true
		}
		if (f.lie == "drop-synced" && b.sync) || (f.lie == "half-cross" && len(shards) > 1) {
			last = i
		}
	}
	f.data = map[string]string{}
	for _, b := range f.log[:last] {
		for _, m := range b.muts {
			f.put(m)
		}
	}
	if f.lie == "half-cross" { // the batch lands on its first participant only
		for _, m := range f.log[last].muts {
			if f.shardOf(m.key) == f.shardOf(f.log[last].muts[0].key) {
				f.put(m)
			}
		}
	}
	return nil
}

func (f *fakeStore) Apply(b *batch.Batch, sync bool) error {
	f.reprs = append(f.reprs, append([]byte(nil), b.Repr()...))
	fb := fakeBatch{sync: sync}
	_ = b.Iterate(func(kind keys.Kind, key, value []byte) error {
		fb.muts = append(fb.muts, mut{key: string(key), val: string(value), del: kind == keys.KindDelete})
		return nil
	})
	for _, m := range fb.muts {
		f.put(m)
	}
	f.log = append(f.log, fb)
	return nil
}

func (f *fakeStore) Get(key []byte) ([]byte, error) {
	if old, ok := f.prev[string(key)]; ok && f.lie == "stale-get" {
		return []byte(old), nil
	}
	if v, ok := f.data[string(key)]; ok {
		return []byte(v), nil
	}
	return nil, engine.ErrNotFound
}

func (f *fakeStore) scan(visit func(key, value []byte)) error {
	ks := make([]string, 0, len(f.data))
	for k := range f.data {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	if f.lie == "scan-omits" {
		ks = ks[1:]
	}
	if f.lie == "scan-leaks" {
		visit([]byte("\x00txn\x00leaked"), []byte("prepare record"))
	}
	for _, k := range ks {
		visit([]byte(k), []byte(f.data[k]))
	}
	return nil
}

func (f *fakeStore) Flush() error           { return nil }
func (f *fakeStore) Health() engine.Health  { return engine.Healthy }
func (f *fakeStore) BackgroundError() error { return nil }
func (f *fakeStore) Resume() error          { return nil }
func (f *fakeStore) Close() error           { return nil }
func (f *fakeStore) counters() counters     { return counters{} }
func (f *fakeStore) shards() int            { return f.n }
func (f *fakeStore) marker(s int) string    { return fmt.Sprintf("@cut%d", s) }
func (f *fakeStore) glob(p string) string   { return p }
func (f *fakeStore) coordLog() string       { return "" }
func (f *fakeStore) describe() string       { return "fake" }
func (f *fakeStore) layout() string         { return "" }
func (f *fakeStore) syncEvents() uint64     { return 0 }

func driveFake(cfg Config, f *fakeStore) error {
	return drive(cfg, func(c Config, _ *rand.Rand, _ geometry, _ func(*engine.Options)) store {
		f.universe = c.Keys
		return f
	})
}

// TestSeedDeterminism: one seed must submit byte-identical batches run
// after run — participants iterate in ascending shard order, never in
// map order — and an honest store passes (enospc aside: see below).
func TestSeedDeterminism(t *testing.T) {
	for _, nemesis := range []string{"crash", "transient", "bitrot", "enospc"} {
		for _, shards := range []int{1, 3} {
			var first [][]byte
			for round := 0; round < 3; round++ {
				f := &fakeStore{n: shards}
				// The enospc regime cannot squeeze a store that uses no
				// disk and fails its settle; its workload is still compared.
				if err := driveFake(Config{Seed: 7, Nemesis: nemesis, Shards: shards}, f); err != nil && nemesis != "enospc" {
					t.Fatalf("%s, %d shards: honest fake store failed: %v", nemesis, shards, err)
				}
				if len(f.reprs) < 1000 {
					t.Fatalf("%s, %d shards: only %d batches submitted", nemesis, shards, len(f.reprs))
				}
				if first == nil {
					first = f.reprs
					continue
				}
				if len(first) != len(f.reprs) {
					t.Fatalf("%s, %d shards: run 0 submitted %d batches, run %d submitted %d",
						nemesis, shards, len(first), round, len(f.reprs))
				}
				for i := range first {
					if !bytes.Equal(first[i], f.reprs[i]) {
						t.Fatalf("%s, %d shards: batch %d differs between runs of one seed:\n%q\n%q",
							nemesis, shards, i, first[i], f.reprs[i])
					}
				}
			}
		}
	}
}

// TestOracleCatchesLies drives the real driver against stores that lie
// and requires the matching violation: the harness's own checks must be
// able to fire.
func TestOracleCatchesLies(t *testing.T) {
	for _, tc := range []struct {
		lie    string
		shards int
		want   string
	}{
		{"drop-synced", 1, "acknowledged-durable data lost"},
		{"stale-get", 1, "SILENT WRONG READ"},
		{"half-cross", 3, "TORN CROSS-SHARD BATCH"},
		{"scan-omits", 1, "scan missed key"},
		{"scan-leaks", 3, "scan found phantom key \"\\x00txn"},
	} {
		err := driveFake(Config{Seed: 11, Shards: tc.shards}, &fakeStore{n: tc.shards, lie: tc.lie})
		switch {
		case err == nil:
			t.Errorf("%s: the lie went unnoticed", tc.lie)
		case !strings.Contains(err.Error(), "DURABILITY VIOLATION") || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: want a DURABILITY VIOLATION mentioning %q, got: %v", tc.lie, tc.want, err)
		}
	}
}

// TestConfigRejected: a nemesis or shard count that cannot run is an
// error, never a silent fallback to another cell.
func TestConfigRejected(t *testing.T) {
	for _, cfg := range []Config{
		{Nemesis: "transient,bitrot"},
		{Nemesis: "Crash"},
		{Shards: -1},
		{Shards: 9, Keys: 8},
	} {
		if err := Run(cfg); err == nil || strings.Contains(err.Error(), "VIOLATION") {
			t.Errorf("Run(%+v) = %v, want a configuration error", cfg, err)
		}
	}
}
