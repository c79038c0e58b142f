package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"xpointdb/internal/bloom"
	"xpointdb/internal/iterator"
	"xpointdb/internal/keys"
)

// buildImage builds a table of n entries in memory and returns its bytes.
func buildImage(t testing.TB, n int, opts BuilderOptions) []byte {
	t.Helper()
	f := &byteFile{}
	b := NewBuilder(f, opts)
	for i := 0; i < n; i++ {
		if err := b.Add(ik(fmt.Sprintf("key-%06d", i), uint64(i+1)),
			[]byte(fmt.Sprintf("value-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	return f.data
}

// inside reports whether sub starts within buf's bytes.
func inside(sub, buf []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
	b := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= b && p < b+uintptr(len(buf))
}

// scanAll returns every key and value a full scan yields, copied.
func scanAll(it iterator.Iterator) (kvs []string, err error) {
	for it.SeekToFirst(); it.Valid(); it.Next() {
		kvs = append(kvs, string(it.Key())+"="+string(it.Value()))
	}
	return kvs, it.Close()
}

// TestImageReaderMatchesFileReader checks a Reader over an in-memory
// image serves the same entries, by scan and by Get, as one over the
// file, and that its blocks are sub-slices of the image.
func TestImageReaderMatchesFileReader(t *testing.T) {
	opts := DefaultBuilderOptions()
	opts.BlockSize = 512
	const n = 2000
	img := buildImage(t, n, opts)
	fr, err := NewReader(&byteFile{data: img}, int64(len(img)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewImageReader(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := scanAll(fr.NewIter())
	got, gerr := scanAll(mr.NewIter())
	if werr != nil || gerr != nil || len(got) != n || strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("image scan: %d entries, %v; file scan: %d entries, %v", len(got), gerr, len(want), werr)
	}
	for i := 0; i < n; i += 7 {
		user := fmt.Sprintf("key-%06d", i)
		_, v, _, found, err := mr.Get(keys.SearchKey([]byte(user), keys.MaxSeq))
		if err != nil || !found || string(v) != fmt.Sprintf("value-%06d", i) {
			t.Fatalf("Get %s = %q, %v, %v", user, v, found, err)
		}
		// No copy: the value lies inside the image.
		if !inside(v, img) {
			t.Fatalf("Get %s: value is not a sub-slice of the image", user)
		}
	}
	if !mr.MayContainHash(bloom.Hash([]byte("key-000042"))) {
		t.Fatal("image reader's filter misses a key")
	}
	if err := mr.Close(); err != nil {
		t.Fatalf("Close of an image reader: %v", err)
	}
}

// TestImageReaderEveryBitFlip: for every single-bit flip of a small
// table image, opening and fully scanning it as an image either fails
// or yields exactly the original entries. Serving blocks in place must
// not skip a CRC, index and filter blocks included.
func TestImageReaderEveryBitFlip(t *testing.T) {
	opts := DefaultBuilderOptions()
	opts.BlockSize = 128
	orig := buildImage(t, 24, opts)
	r, err := NewImageReader(orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scanAll(r.NewIter())
	if err != nil {
		t.Fatal(err)
	}
	filterFlips := 0
	for bit := 0; bit < len(orig)*8; bit++ {
		img := bytes.Clone(orig)
		img[bit/8] ^= 1 << (bit % 8)
		r, err := NewImageReader(img, 1)
		if err != nil {
			if strings.Contains(err.Error(), "read filter") {
				filterFlips++
			}
			continue
		}
		got, err := scanAll(r.NewIter())
		if err != nil {
			continue
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("bit %d (byte %d): scan of the damaged image returned different entries", bit, bit/8)
		}
	}
	if filterFlips == 0 {
		t.Fatal("no flip in the filter block was caught at open")
	}
}

// TestImageReaderChecksCodec: a retired-codec data block is corruption
// when served from an image too.
func TestImageReaderChecksCodec(t *testing.T) {
	img := corpusSeed(t, "testdata/fuzz/FuzzTableReader/valid_flate")
	r, err := NewImageReader(img, 7)
	if err != nil {
		t.Fatalf("NewImageReader: %v", err)
	}
	it := r.NewIter()
	it.SeekToFirst()
	var ce *CorruptionError
	if it.Valid() || !errors.As(it.Error(), &ce) || !strings.Contains(ce.Detail, "unknown codec 1") {
		t.Fatalf("scan of a flate image: valid=%v err=%v, want unknown codec 1", it.Valid(), it.Error())
	}
	if _, err := NewImageReader(img[:footerLen-1], 7); !IsCorruption(err) {
		t.Fatalf("image shorter than a footer: %v", err)
	}
}

// TestWindowOutOfRangeIsAnError: a windowed reader asked for a block the
// window does not hold fails instead of serving other bytes.
func TestWindowOutOfRangeIsAnError(t *testing.T) {
	opts := DefaultBuilderOptions()
	opts.BlockSize = 512
	r, fs := buildTable(t, 2000, nil, opts)
	startIK := keys.SearchKey([]byte("key-000900"), keys.MaxSeq)
	endIK := keys.SearchKey([]byte("key-001000"), keys.MaxSeq)
	off, n, err := r.DataWindow(startIK, endIK)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("t.sst")
	window := make([]byte, n)
	if _, err := f.ReadAt(window, off); err != nil {
		t.Fatal(err)
	}
	it := r.WithWindow(window, off).NewIter()
	it.SeekToFirst() // the first block lies before the window
	if it.Valid() || !errors.Is(it.Error(), io.EOF) {
		t.Fatalf("scan from before the window: valid=%v err=%v, want an error wrapping io.EOF", it.Valid(), it.Error())
	}
}

// TestBuilderFilterMatchesBloomNew: the filter block a Builder writes
// from key hashes is byte-identical to bloom.New over the same user
// keys, duplicates included (one per entry).
func TestBuilderFilterMatchesBloomNew(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var userKeys [][]byte
	f := &byteFile{}
	b := NewBuilder(f, DefaultBuilderOptions())
	seq := uint64(1 << 20)
	for i := 0; i < 3000; i++ {
		user := []byte(fmt.Sprintf("user-%08d", i*3+rng.Intn(3)))
		// Several versions of some keys, newest first, as compaction
		// with snapshots writes them.
		for v := rng.Intn(3); v >= 0; v-- {
			if err := b.Add(ik(string(user), seq), []byte("v")); err != nil {
				t.Fatal(err)
			}
			seq--
			userKeys = append(userKeys, user)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := NewImageReader(f.data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := bloom.New(userKeys, DefaultBuilderOptions().BloomBitsPerKey); !bytes.Equal(r.filter, want) {
		t.Fatalf("filter block (%d bytes) differs from bloom.New over the same %d keys (%d bytes)",
			len(r.filter), len(userKeys), len(want))
	}
}
