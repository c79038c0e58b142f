package sstable

import (
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"xpointdb/internal/bloom"
	"xpointdb/internal/keys"
)

// fuzzFile adapts a byte slice to vfs.File.
type fuzzFile struct {
	buf []byte
}

func (f *fuzzFile) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *fuzzFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *fuzzFile) Sync() error  { return nil }
func (f *fuzzFile) Close() error { return nil }

// buildFuzzTable writes a small valid table and returns its bytes.
func buildFuzzTable(tb testing.TB, opts BuilderOptions, n int) []byte {
	f := &fuzzFile{}
	b := NewBuilder(f, opts)
	for i := 0; i < n; i++ {
		k := keys.Make([]byte(fmt.Sprintf("key%04d", i)), uint64(i+1), keys.KindSet)
		if err := b.Add(k, []byte(fmt.Sprintf("value%04d", i))); err != nil {
			tb.Fatalf("Add: %v", err)
		}
	}
	if _, err := b.Finish(); err != nil {
		tb.Fatalf("Finish: %v", err)
	}
	return f.buf
}

// validBlock builds one raw block image (as fed to blockIter.init).
func validBlock(n int) []byte {
	var b blockBuilder
	for i := 0; i < n; i++ {
		k := keys.Make([]byte(fmt.Sprintf("key%04d", i)), uint64(i+1), keys.KindSet)
		b.add(k, []byte("v"))
	}
	return append([]byte(nil), b.finish()...)
}

// FuzzBlockIter drives the block decoder and every iterator movement
// over arbitrary bytes: corruption must surface as Error()/invalid
// positioning, never as a panic or unbounded loop.
func FuzzBlockIter(f *testing.F) {
	f.Add(validBlock(1))
	f.Add(validBlock(50)) // spans several restart intervals
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte("garbage-not-a-block"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var it blockIter
		if it.init(data) != nil {
			return
		}
		// Each decoded entry consumes ≥3 bytes, so entry counts are
		// bounded by the input; the caps guard against cursor bugs.
		limit := len(data) + 1
		for it.SeekToFirst(); it.Valid() && limit > 0; it.Next() {
			limit--
		}
		if limit <= 0 {
			t.Fatal("forward scan did not terminate")
		}
		it.SeekGE(keys.Make([]byte("key0010"), keys.MaxSeq, keys.KindSet))
		it.SeekGE(keys.Make(nil, 0, keys.KindSet))
		it.SeekLT(keys.Make([]byte("key0040"), keys.MaxSeq, keys.KindSet))
		limit = len(data) + 1
		for it.SeekToLast(); it.Valid() && limit > 0; it.Prev() {
			limit--
		}
		if limit <= 0 {
			t.Fatal("backward scan did not terminate")
		}
	})
}

// FuzzTableReader opens arbitrary bytes as a table; valid-enough
// inputs are additionally scanned and probed. No input may panic the
// reader. The committed corpus keeps a table of the retired
// DEFLATE-coded blocks (valid_flate), which must now read as
// corruption.
func FuzzTableReader(f *testing.F) {
	f.Add(buildFuzzTable(f, BuilderOptions{BlockSize: 64, BloomBitsPerKey: 10}, 40))
	f.Add(buildFuzzTable(f, BuilderOptions{BlockSize: 4096}, 120))
	f.Add(buildFuzzTable(f, BuilderOptions{BlockSize: 4096}, 0))
	f.Add([]byte("way too short"))
	// Valid magic, garbage handles.
	bad := make([]byte, footerLen)
	binary.LittleEndian.PutUint64(bad[footerLen-8:], tableMagic)
	for i := 0; i < 40; i++ {
		bad[i] = 0xff
	}
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(&fuzzFile{buf: data}, int64(len(data)), 1, nil)
		if err != nil {
			return
		}
		it := r.NewIter()
		limit := len(data) + 1
		for it.SeekToFirst(); it.Valid() && limit > 0; it.Next() {
			limit--
		}
		if limit <= 0 {
			t.Fatal("table scan did not terminate")
		}
		_ = it.Error()
		it.Close()
		probe := keys.Make([]byte("key0007"), 1000, keys.KindSet)
		_, _, _, _, _ = r.Get(probe)
		r.MayContainHash(bloom.Hash([]byte("key0007")))
	})
}
