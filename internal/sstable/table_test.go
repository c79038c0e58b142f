package sstable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"xpointdb/internal/bloom"
	"xpointdb/internal/cache"
	"xpointdb/internal/clock"
	"xpointdb/internal/keys"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

func newFS() *vfs.MemFS {
	return vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
}

func ik(user string, seq uint64) []byte {
	return keys.Make([]byte(user), seq, keys.KindSet)
}

// buildTable writes n sequential entries and returns an open Reader.
func buildTable(t testing.TB, n int, c *cache.Cache, opts BuilderOptions) (*Reader, *vfs.MemFS) {
	t.Helper()
	fs := newFS()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, opts)
	for i := 0; i < n; i++ {
		key := ik(fmt.Sprintf("key-%06d", i), uint64(i+1))
		if err := b.Add(key, []byte(fmt.Sprintf("value-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	size, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()

	rf, err := fs.Open("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(rf, size, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	return r, fs
}

func TestBuildAndGetEveryKey(t *testing.T) {
	const n = 2000
	r, _ := buildTable(t, n, nil, DefaultBuilderOptions())
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("key-%06d", i)
		k, v, _, found, err := r.Get(keys.SearchKey([]byte(user), keys.MaxSeq))
		if err != nil || !found {
			t.Fatalf("Get %s: found=%v err=%v", user, found, err)
		}
		if string(keys.UserKey(k)) != user {
			t.Fatalf("Get %s returned key %s", user, keys.String(k))
		}
		if want := fmt.Sprintf("value-%06d", i); string(v) != want {
			t.Fatalf("Get %s = %q", user, v)
		}
	}
}

func TestGetAbsentKeys(t *testing.T) {
	r, _ := buildTable(t, 100, nil, DefaultBuilderOptions())
	// A key beyond the last entry: not found.
	_, _, _, found, err := r.Get(keys.SearchKey([]byte("zzz"), keys.MaxSeq))
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("found a key past the table range")
	}
	// A key between entries: Get returns the NEXT entry; the caller
	// checks user-key equality.
	k, _, _, found, err := r.Get(keys.SearchKey([]byte("key-000050x"), keys.MaxSeq))
	if err != nil || !found {
		t.Fatalf("between-keys get: %v %v", found, err)
	}
	if string(keys.UserKey(k)) != "key-000051" {
		t.Fatalf("between-keys get landed on %s", keys.String(k))
	}
}

func TestIterFullScan(t *testing.T) {
	const n = 3000
	r, _ := buildTable(t, n, nil, DefaultBuilderOptions())
	it := r.NewIter()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		want := fmt.Sprintf("key-%06d", i)
		if string(keys.UserKey(it.Key())) != want {
			t.Fatalf("scan position %d = %s", i, keys.String(it.Key()))
		}
		i++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d of %d", i, n)
	}
}

func TestIterSeekGE(t *testing.T) {
	r, _ := buildTable(t, 1000, nil, DefaultBuilderOptions())
	it := r.NewIter()
	it.SeekGE(keys.SearchKey([]byte("key-000500"), keys.MaxSeq))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "key-000500" {
		t.Fatalf("SeekGE exact = %s", keys.String(it.Key()))
	}
	it.SeekGE(keys.SearchKey([]byte("key-0005005"), keys.MaxSeq))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "key-000501" {
		t.Fatalf("SeekGE between = %s", keys.String(it.Key()))
	}
	it.SeekGE(keys.SearchKey([]byte("zzz"), keys.MaxSeq))
	if it.Valid() {
		t.Fatal("SeekGE past end valid")
	}
}

func TestBloomFilterSkips(t *testing.T) {
	r, _ := buildTable(t, 1000, nil, DefaultBuilderOptions())
	for i := 0; i < 1000; i++ {
		if !r.MayContainHash(bloom.Hash([]byte(fmt.Sprintf("key-%06d", i)))) {
			t.Fatal("bloom false negative")
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if r.MayContainHash(bloom.Hash([]byte(fmt.Sprintf("nope-%06d", i)))) {
			fp++
		}
	}
	if fp > 50 {
		t.Fatalf("bloom false positive rate too high: %d/1000", fp)
	}
}

func TestNoBloomIsPermissive(t *testing.T) {
	opts := DefaultBuilderOptions()
	opts.BloomBitsPerKey = 0
	r, _ := buildTable(t, 10, nil, opts)
	if !r.MayContainHash(bloom.Hash([]byte("anything"))) {
		t.Fatal("without a filter MayContainHash must be permissive")
	}
}

func TestBlockCacheUsed(t *testing.T) {
	c := cache.New(1 << 20)
	r, _ := buildTable(t, 2000, c, DefaultBuilderOptions())
	target := keys.SearchKey([]byte("key-001000"), keys.MaxSeq)
	if _, _, _, _, err := r.Get(target); err != nil {
		t.Fatal(err)
	}
	h0, m0 := c.Stats()
	if _, _, _, _, err := r.Get(target); err != nil {
		t.Fatal(err)
	}
	h1, _ := c.Stats()
	if h1 != h0+1 {
		t.Fatalf("second Get should hit cache: hits %d→%d (misses %d)", h0, h1, m0)
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("x.sst")
	b := NewBuilder(f, DefaultBuilderOptions())
	if err := b.Add(ik("b", 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(ik("a", 1), nil); err == nil {
		t.Fatal("out-of-order key accepted")
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("c.sst")
	b := NewBuilder(f, DefaultBuilderOptions())
	for i := 0; i < 500; i++ {
		b.Add(ik(fmt.Sprintf("key-%06d", i), uint64(i+1)), []byte("v"))
	}
	size, _ := b.Finish()
	f.Sync()
	f.Close()

	// Corrupt a byte in the first data block.
	rf, _ := fs.Open("c.sst")
	raw := make([]byte, size)
	rf.ReadAt(raw, 0)
	rf.Close()
	raw[10] ^= 0xFF
	fs.Remove("c.sst")
	nf, _ := fs.Create("c.sst")
	nf.Write(raw)
	nf.Sync()

	r, err := NewReader(nf, size, 2, nil)
	if err != nil {
		// Index/footer corruption also acceptable detection point.
		return
	}
	_, _, _, _, err = r.Get(keys.SearchKey([]byte("key-000000"), keys.MaxSeq))
	if err == nil {
		t.Fatal("corrupt block not detected")
	}
}

func TestBadMagicRejected(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("m.sst")
	f.Write(bytes.Repeat([]byte{0}, 100))
	f.Sync()
	if _, err := NewReader(f, 100, 3, nil); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestEstimatedSizeMonotonic(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("e.sst")
	b := NewBuilder(f, DefaultBuilderOptions())
	prev := b.EstimatedSize()
	for i := 0; i < 100; i++ {
		b.Add(ik(fmt.Sprintf("key-%06d", i), uint64(i+1)), bytes.Repeat([]byte("v"), 200))
		if sz := b.EstimatedSize(); sz < prev {
			t.Fatalf("EstimatedSize shrank: %d < %d", sz, prev)
		} else {
			prev = sz
		}
	}
}

func TestSmallestLargest(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("s.sst")
	b := NewBuilder(f, DefaultBuilderOptions())
	b.Add(ik("aaa", 9), nil)
	b.Add(ik("mmm", 5), nil)
	b.Add(ik("zzz", 1), nil)
	b.Finish()
	if string(keys.UserKey(b.Smallest())) != "aaa" || string(keys.UserKey(b.Largest())) != "zzz" {
		t.Fatalf("bounds = %s .. %s", keys.String(b.Smallest()), keys.String(b.Largest()))
	}
}

// TestRoundTripProperty: arbitrary sorted key/value sets round-trip
// through build + scan.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw map[string]string) bool {
		if len(raw) == 0 {
			return true
		}
		users := make([]string, 0, len(raw))
		for k := range raw {
			users = append(users, k)
		}
		sort.Strings(users)

		fs := newFS()
		fl, _ := fs.Create("q.sst")
		b := NewBuilder(fl, DefaultBuilderOptions())
		for i, u := range users {
			if err := b.Add(keys.Make([]byte(u), uint64(i+1), keys.KindSet), []byte(raw[u])); err != nil {
				return false
			}
		}
		size, err := b.Finish()
		if err != nil {
			return false
		}
		fl.Sync()

		r, err := NewReader(fl, size, 9, nil)
		if err != nil {
			return false
		}
		it := r.NewIter()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if string(keys.UserKey(it.Key())) != users[i] || string(it.Value()) != raw[users[i]] {
				return false
			}
			i++
		}
		return it.Error() == nil && i == len(users)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTinyBlockSizeManyBlocks(t *testing.T) {
	opts := BuilderOptions{BlockSize: 64, BloomBitsPerKey: 10}
	r, _ := buildTable(t, 500, nil, opts)
	it := r.NewIter()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if n != 500 {
		t.Fatalf("scanned %d with tiny blocks", n)
	}
	// Point lookups still work across many small blocks.
	_, _, _, found, err := r.Get(keys.SearchKey([]byte("key-000357"), keys.MaxSeq))
	if err != nil || !found {
		t.Fatalf("get with tiny blocks: %v %v", found, err)
	}
}
