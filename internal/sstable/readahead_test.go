package sstable

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"xpointdb/internal/cache"
	"xpointdb/internal/iterator"
	"xpointdb/internal/keys"
	"xpointdb/internal/vfs"
)

// openCounting opens img through a countingFile with cache c.
func openCounting(tb testing.TB, img []byte, fileNum uint64, c *cache.Cache) (*Reader, *countingFile) {
	tb.Helper()
	cf := &countingFile{File: &byteFile{data: img}}
	r, err := NewReader(cf, int64(len(img)), fileNum, c)
	if err != nil {
		tb.Fatal(err)
	}
	cf.reads, cf.bytes = 0, 0
	return r, cf
}

// at reports whether it sits at oracle entry i (i out of range: it must
// be invalid), failing the test with what differs.
func (o raOracle) at(t *testing.T, it iterator.Iterator, i int, what string) {
	t.Helper()
	if i < 0 || i >= len(o.keys) {
		if it.Valid() {
			t.Fatalf("%s: at %s, want the end", what, keys.String(it.Key()))
		}
		if err := it.Error(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return
	}
	if !it.Valid() {
		t.Fatalf("%s: invalid (err %v), want entry %d", what, it.Error(), i)
	}
	if string(it.Key()) != string(o.keys[i]) || string(it.Value()) != string(o.values[i]) {
		t.Fatalf("%s: at %s, want entry %d %s", what, keys.String(it.Key()), i, keys.String(o.keys[i]))
	}
}

// seekTarget returns a search key landing on entry i, or, with
// between, just after entry i-1's user key, which SeekGE resolves to
// entry i too.
func seekTarget(i int, between bool) []byte {
	user := fmt.Sprintf("key-%06d", i)
	if between {
		user = fmt.Sprintf("key-%06d~", i-1)
	}
	return keys.SearchKey([]byte(user), keys.MaxSeq)
}

// raCaches are the caches every oracle check runs with: none, one
// that holds a few blocks, and one that holds the whole table.
var raCaches = []struct {
	name string
	size int64
}{{"nil", 0}, {"small", 256 << 10}, {"fits", 8 << 20}}

func newRACache(size int64) *cache.Cache {
	if size == 0 {
		return nil
	}
	return cache.New(size)
}

// TestReadaheadMatchesOracle checks every move of a reading-ahead
// iterator against the table's entries: seeks followed by long forward
// runs across several refills, backward steps into blocks the buffer
// holds, SeekLT, and a random walk.
func TestReadaheadMatchesOracle(t *testing.T) {
	const n = 3000 // about 90 blocks: refills of 3, 7, 15, 31 and 62 blocks
	img, o := raImage(t, n, 100)
	for _, cc := range raCaches {
		t.Run(cc.name, func(t *testing.T) {
			r, _ := openCounting(t, img, 1, newRACache(cc.size))
			rng := rand.New(rand.NewSource(1))

			t.Run("SeekGE", func(t *testing.T) {
				for trial := 0; trial < 40; trial++ {
					it := r.NewIter()
					i := rng.Intn(n + 1)
					it.SeekGE(seekTarget(i, trial%2 == 1))
					o.at(t, it, i, fmt.Sprintf("SeekGE %d", i))
					for steps := rng.Intn(600); steps > 0 && i < n; steps-- {
						it.Next()
						i++
						o.at(t, it, i, "Next after SeekGE")
					}
					if err := it.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})

			t.Run("Next across refills", func(t *testing.T) {
				it := r.NewIter()
				it.SeekToFirst()
				for i := 0; i <= n; i++ {
					o.at(t, it, i, "full scan")
					it.Next()
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
			})

			t.Run("Prev into window", func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					it := r.NewIter()
					i := rng.Intn(n / 2)
					it.SeekGE(seekTarget(i, false))
					fwd := 100 + rng.Intn(500) // several blocks: the buffer fills
					for ; fwd > 0; fwd-- {
						it.Next()
						i++
						o.at(t, it, i, "Next")
					}
					for back := rng.Intn(700); back > 0 && i >= 0; back-- {
						it.Prev()
						i--
						o.at(t, it, i, "Prev back into the buffer")
					}
					if err := it.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})

			t.Run("SeekLT", func(t *testing.T) {
				for trial := 0; trial < 40; trial++ {
					it := r.NewIter()
					i := rng.Intn(n + 1)
					it.SeekLT(seekTarget(i, trial%2 == 1))
					i--
					o.at(t, it, i, fmt.Sprintf("SeekLT %d", i+1))
					for steps := rng.Intn(200); steps > 0 && i >= 0; steps-- {
						it.Prev()
						i--
						o.at(t, it, i, "Prev after SeekLT")
					}
					if i < 0 {
						continue
					}
					for steps := rng.Intn(400); steps > 0 && i < n; steps-- {
						it.Next()
						i++
						o.at(t, it, i, "Next after SeekLT")
					}
					if err := it.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})

			t.Run("random walk", func(t *testing.T) {
				it := r.NewIter()
				i := 0
				it.SeekToFirst()
				for op := 0; op < 5000; op++ {
					switch x := rng.Intn(100); {
					case x < 2:
						i = rng.Intn(n + 1)
						it.SeekGE(seekTarget(i, false))
					case x < 4:
						i = rng.Intn(n+1) - 1
						it.SeekLT(seekTarget(i+1, false))
					case x < 70:
						if i >= n || i < 0 {
							continue
						}
						it.Next()
						i++
					default:
						if i >= n || i < 0 {
							continue
						}
						it.Prev()
						i--
					}
					o.at(t, it, i, fmt.Sprintf("walk op %d", op))
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestReadaheadReadsEachBlockOnce checks a cold forward scan reads
// every data block exactly once, in one read for the seek's block and
// one per refill, each refill at most twice the one before and none
// over readaheadMax.
func TestReadaheadReadsEachBlockOnce(t *testing.T) {
	const n = 8000 // about 240 blocks: the last refills read readaheadMax
	img, _ := raImage(t, n, 100)
	r, cf := openCounting(t, img, 1, nil)
	var sizes []int
	cf.File = &sizeRecorder{File: cf.File, sizes: &sizes}
	kvs, err := scanAll(r.NewIter())
	if err != nil || len(kvs) != n {
		t.Fatalf("scan: %d entries, %v", len(kvs), err)
	}
	last := r.index.handles[r.index.len()-1]
	if want := int(last.offset + last.length + blockTrailerLen); cf.bytes != want {
		t.Fatalf("scan read %d bytes, the data blocks are %d", cf.bytes, want)
	}
	if len(sizes) < 7 || len(sizes) > 10 {
		t.Fatalf("scan of %d blocks made %d reads %v, want one plus 6 to 9 refills", r.index.len(), len(sizes), sizes)
	}
	for k, s := range sizes[1:] {
		limit := min(readaheadMin<<k, readaheadMax)
		if s > limit || (k < len(sizes)-2 && s <= limit/2) {
			t.Fatalf("refill %d read %d bytes, want whole blocks filling %d (reads %v)", k, s, limit, sizes)
		}
	}
}

// TestSeeksAndPrevNeverReadAhead checks that with no cache every read
// a seek or a backward step makes is of one block: after a block read
// from the file, only Next reads ahead.
func TestSeeksAndPrevNeverReadAhead(t *testing.T) {
	const n = 3000
	img, o := raImage(t, n, 100)
	r, cf := openCounting(t, img, 1, nil)
	var sizes []int
	cf.File = &sizeRecorder{File: cf.File, sizes: &sizes}
	it := r.NewIter()
	it.SeekToLast()
	for i := n - 1; i >= -1; i-- {
		o.at(t, it, i, "backward scan")
		it.Prev()
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(n)
		it.SeekGE(seekTarget(i, false))
		o.at(t, it, i, "SeekGE")
		it.SeekLT(seekTarget(i, false))
		o.at(t, it, i-1, "SeekLT")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sizes {
		if s > 8<<10 {
			t.Fatalf("a seek or backward step read %d bytes at once (reads %v)", s, sizes)
		}
	}
}

// sizeRecorder records the length of every ReadAt.
type sizeRecorder struct {
	vfs.File
	sizes *[]int
}

func (f *sizeRecorder) ReadAt(p []byte, off int64) (int, error) {
	*f.sizes = append(*f.sizes, len(p))
	return f.File.ReadAt(p, off)
}

// TestReadaheadBitFlipIsCorruption flips bits in blocks a cold scan
// reaches only through read-ahead (every block after the first): the
// scan must stop with a CorruptionError, having returned only correct
// entries.
func TestReadaheadBitFlipIsCorruption(t *testing.T) {
	const n = 1200
	img, o := raImage(t, n, 100)
	r, _ := openCounting(t, img, 1, nil)
	for b := 1; b < r.index.len(); b++ {
		h := r.index.handles[b]
		for _, at := range []uint64{0, h.length / 2, h.length - 1, h.length, h.length + 2} {
			bad := append([]byte(nil), img...)
			bad[h.offset+at] ^= 0x10
			br, _ := openCounting(t, bad, 1, nil)
			it := br.NewIter()
			i := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				o.at(t, it, i, fmt.Sprintf("block %d byte %d flipped", b, at))
				i++
			}
			if err := it.Close(); !IsCorruption(err) {
				t.Fatalf("block %d byte %d flipped: scan of %d entries ended with %v, want a CorruptionError", b, at, i, err)
			}
		}
	}
}

// TestReadaheadTransientReadError checks a refill's failed ReadAt
// surfaces in Error after only correct entries, and that a fresh
// iterator then reads the whole table.
func TestReadaheadTransientReadError(t *testing.T) {
	const n = 3000
	img, o := raImage(t, n, 100)
	r, cf := openCounting(t, img, 1, cache.New(256<<10))
	injected := errors.New("injected transient read error")
	cf.failRefill = injected
	it := r.NewIter()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		o.at(t, it, i, "scan with a failing refill")
		i++
	}
	if err := it.Close(); !errors.Is(err, injected) {
		t.Fatalf("scan ended after %d entries with %v, want the injected error", i, err)
	}
	if i == 0 || i == n {
		t.Fatalf("scan returned %d entries: the failure did not land on a refill", i)
	}
	kvs, err := scanAll(r.NewIter())
	if err != nil || len(kvs) != n {
		t.Fatalf("fresh scan after the failure: %d entries, %v", len(kvs), err)
	}
}

// shortFile is a file that ends at size although its image goes on:
// ReadAt fills all of p from the image, as io.ReaderAt allows, but
// counts only the bytes before size. Only the count tells a short read
// from a whole one.
type shortFile struct {
	byteFile
	size int64
}

func (f *shortFile) ReadAt(p []byte, off int64) (int, error) {
	f.byteFile.ReadAt(p, off)
	if end := off + int64(len(p)); end > f.size {
		return int(max(f.size-off, 0)), io.EOF
	}
	return len(p), nil
}

// TestReadaheadShortFileIsCorruption checks a file shorter than its
// index says is a CorruptionError when a refill reaches the missing
// bytes, as a compaction's short window read is.
func TestReadaheadShortFileIsCorruption(t *testing.T) {
	const n = 3000
	img, o := raImage(t, n, 100)
	f := &shortFile{byteFile: byteFile{data: img}, size: int64(len(img))}
	r, err := NewReader(f, int64(len(img)), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.size = int64(r.index.handles[5].offset + 10) // after open: footer and index were read
	it := r.NewIter()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		o.at(t, it, i, "scan of a short file")
		i++
	}
	err = it.Close()
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.FileNum != 7 || ce.Offset != uint64(f.size) {
		t.Fatalf("scan of a short file ended after %d entries with %v, want a CorruptionError of file 7 at offset %d", i, err, f.size)
	}
}

// TestWindowAndImageReadersNeverReadAhead checks readers over bytes
// already in memory never read: a window reader's file sees no ReadAt
// through full forward and backward scans, and an image reader, which
// has no file, serves every block.
func TestWindowAndImageReadersNeverReadAhead(t *testing.T) {
	const n = 3000
	img, o := raImage(t, n, 100)
	check := func(name string, r *Reader) {
		it := r.NewIter()
		it.SeekToFirst()
		for i := 0; i <= n; i++ {
			o.at(t, it, i, name+" forward")
			it.Next()
		}
		it.SeekToLast()
		for i := n - 1; i >= -1; i-- {
			o.at(t, it, i, name+" backward")
			it.Prev()
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r, cf := openCounting(t, img, 1, cache.New(8<<20))
	off, length, err := r.DataWindow(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("window reader", r.WithWindow(img[off:off+length], off))
	if cf.reads != 0 {
		t.Fatalf("window reader made %d ReadAt calls", cf.reads)
	}
	ir, err := NewImageReader(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("image reader", ir)
}

// TestReadaheadCachePolicy checks what read-ahead does to the block
// cache: every block is still probed, a table that fits is fully
// cached by one scan (with copies, not the iterator's buffer), and in
// a full cache the read-ahead blocks evict nothing and are not admitted.
func TestReadaheadCachePolicy(t *testing.T) {
	t.Run("fits", func(t *testing.T) {
		const n = 3000
		img, o := raImage(t, n, 100)
		c := cache.New(8 << 20)
		r, cf := openCounting(t, img, 1, c)
		blocks := int64(r.index.len())
		if kvs, err := scanAll(r.NewIter()); err != nil || len(kvs) != n {
			t.Fatalf("first scan: %d entries, %v", len(kvs), err)
		}
		hits, misses := c.Stats()
		if hits+misses != blocks {
			t.Fatalf("first scan probed the cache %d times (%d hits, %d misses), the table has %d blocks", hits+misses, hits, misses, blocks)
		}
		// Another table's scan reuses the pooled buffers and overwrites
		// them: the cached blocks must be copies.
		other, _ := raImage(t, n, 90)
		or, _ := openCounting(t, other, 2, nil)
		if _, err := scanAll(or.NewIter()); err != nil {
			t.Fatal(err)
		}
		reads := cf.reads
		it := r.NewIter()
		it.SeekToFirst()
		for i := 0; i <= n; i++ {
			o.at(t, it, i, "second scan")
			it.Next()
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		h2, m2 := c.Stats()
		if h2-hits != blocks || m2 != misses || cf.reads != reads {
			t.Fatalf("second scan: %d hits, %d misses, %d reads; want %d hits and none else", h2-hits, m2-misses, cf.reads-reads, blocks)
		}
	})

	t.Run("full", func(t *testing.T) {
		// A table whose blocks are all longer than half the longest,
		// its last one included, so that no shard holding one block
		// has room for a second.
		var img []byte
		var hs []blockHandle
		var maxLen uint64
		for n := 3000; ; n++ {
			img, _ = raImage(t, n, 100)
			probe, _ := openCounting(t, img, 1, nil)
			hs = probe.index.handles
			minLen := hs[0].length
			maxLen = minLen
			for _, h := range hs {
				minLen, maxLen = min(minLen, h.length), max(maxLen, h.length)
			}
			if 2*minLen > maxLen {
				break
			}
		}
		// Each shard holds one filler of the largest block's size, so
		// once one block replaces it, no shard has room for another.
		const shards = 16
		c := cache.New(shards * int64(maxLen))
		filler := make([]byte, maxLen)
		for off := uint64(0); off < 64*shards; off++ {
			c.Insert(99, off, filler)
		}
		r, _ := openCounting(t, img, 1, c)
		it := r.NewIter()
		it.SeekToFirst() // a seek's block is read and cached as a Get's is
		cached := func() map[string]bool {
			set := map[string]bool{}
			for off := uint64(0); off < 64*shards; off++ {
				if _, ok := c.Get(99, off); ok {
					set[fmt.Sprint("filler ", off)] = true
				}
			}
			for _, h := range hs {
				if _, ok := c.Get(1, h.offset); ok {
					set[fmt.Sprint("block ", h.offset)] = true
				}
			}
			return set
		}
		before := cached()
		for it.Valid() {
			it.Next()
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		after := cached()
		if fmt.Sprint(before) != fmt.Sprint(after) {
			t.Fatalf("read-ahead scan changed the cached set:\nbefore %v\nafter  %v", before, after)
		}
	})
}

// TestReadaheadBlockOverMax checks a block larger than readaheadMax,
// one entry with a 300 KiB value, is read whole into a buffer of its
// own, between blocks that come from pooled ones.
func TestReadaheadBlockOverMax(t *testing.T) {
	f := &byteFile{}
	b := NewBuilder(f, DefaultBuilderOptions())
	var o raOracle
	for i := 0; i < 400; i++ {
		v := []byte(fmt.Sprintf("value-%06d", i))
		if i == 200 {
			v = make([]byte, 300<<10)
			for j := range v {
				v[j] = byte(j)
			}
		}
		k := ik(fmt.Sprintf("key-%06d", i), uint64(i+1))
		if err := b.Add(k, v); err != nil {
			t.Fatal(err)
		}
		o.keys, o.values = append(o.keys, k), append(o.values, v)
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	r, _ := openCounting(t, f.data, 1, nil)
	it := r.NewIter()
	it.SeekToFirst()
	for i := 0; i <= len(o.keys); i++ {
		o.at(t, it, i, "scan across a block over readaheadMax")
		it.Next()
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadaheadConcurrentScans runs scans on several goroutines over
// one Reader and one cache too small for the table, so pooled buffers
// pass between iterators and read-ahead admits race with inserts and
// evictions. Every entry must still match.
func TestReadaheadConcurrentScans(t *testing.T) {
	const n, workers = 3000, 4
	img, o := raImage(t, n, 100)
	r, err := NewReader(&byteFile{data: img}, int64(len(img)), 1, cache.New(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 30; trial++ {
				it := r.NewIter()
				i := rng.Intn(n)
				it.SeekGE(seekTarget(i, false))
				for steps := 0; steps < 100+20*trial && i < n; steps++ {
					if !it.Valid() {
						t.Errorf("worker %d: invalid at entry %d: %v", seed, i, it.Error())
						break
					}
					if string(it.Key()) != string(o.keys[i]) || string(it.Value()) != string(o.values[i]) {
						t.Errorf("worker %d: at %s, want entry %d", seed, keys.String(it.Key()), i)
						break
					}
					it.Next()
					i++
				}
				if err := it.Close(); err != nil {
					t.Errorf("worker %d: %v", seed, err)
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
