package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xpointdb/internal/keys"
)

// tableWithIndexEntries builds a table whose index has exactly n
// entries: every value outgrows the block size, so each entry is a
// data block of its own. Keys are random user keys of 1–12 bytes with
// random sequence numbers.
func tableWithIndexEntries(t *testing.T, rng *rand.Rand, n int) []byte {
	t.Helper()
	users := map[string]bool{}
	for len(users) < n {
		u := make([]byte, 1+rng.Intn(12))
		for i := range u {
			u[i] = byte('a' + rng.Intn(4)) // a small alphabet shares prefixes
		}
		users[string(u)] = true
	}
	sorted := make([]string, 0, n)
	for u := range users {
		sorted = append(sorted, u)
	}
	sort.Strings(sorted)
	f := &byteFile{}
	b := NewBuilder(f, BuilderOptions{BlockSize: 32})
	val := make([]byte, 40)
	for _, u := range sorted {
		if err := b.Add(ik(u, uint64(1+rng.Intn(1000))), val); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	return f.data
}

// rawIndex returns a table image's index block contents, checked.
func rawIndex(t *testing.T, img []byte) []byte {
	t.Helper()
	r := &Reader{fileNum: 1, size: int64(len(img)), window: img}
	_, ih, err := decodeFooter(img[len(img)-footerLen:], r.size, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r.readBlock(ih)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestIndexSeekMatchesBlockIter checks the decoded index against
// blockIter over the raw index block, the reference: for every target
// both seeks select the same block handle and make the same number of
// key comparisons (the count the cost model charges in virtual time).
// Index sizes cover one entry, restart counts that are and are not
// multiples of 16, and random sizes; targets cover every separator,
// its neighbours in sequence order, keys before the first separator
// and after the last, and random keys.
func TestIndexSeekMatchesBlockIter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 2, 15, 16, 17, 255, 256, 257, 272, 512, 513}
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 1+rng.Intn(700))
	}
	for _, n := range sizes {
		raw := rawIndex(t, tableWithIndexEntries(t, rng, n))
		x, err := decodeIndex(raw)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var ref blockIter
		if err := ref.init(raw); err != nil {
			t.Fatal(err)
		}
		if want := (n + restartInterval - 1) / restartInterval; ref.numRestarts() != want || len(x.restarts) != want {
			t.Fatalf("n=%d: %d restarts in the block, %d decoded, want %d", n, ref.numRestarts(), len(x.restarts), want)
		}

		// The decoded entries are the block's entries, in order.
		i := 0
		for ref.SeekToFirst(); ref.Valid(); ref.Next() {
			h, _, _ := decodeHandle(ref.Value())
			if i >= x.len() || !bytes.Equal(x.key(i), ref.Key()) || x.handles[i] != h {
				t.Fatalf("n=%d: entry %d differs from the block", n, i)
			}
			i++
		}
		if i != n || x.len() != n {
			t.Fatalf("n=%d: block has %d entries, decoded index %d", n, i, x.len())
		}

		var targets [][]byte
		for i := 0; i < n; i++ {
			sep := x.key(i)
			seq, _ := keys.Trailer(sep)
			targets = append(targets, sep,
				keys.Make(keys.UserKey(sep), seq+1, keys.KindSet),
				keys.SearchKey(keys.UserKey(sep), keys.MaxSeq))
			if seq > 0 {
				targets = append(targets, keys.Make(keys.UserKey(sep), seq-1, keys.KindSet))
			}
		}
		targets = append(targets,
			keys.SearchKey(nil, keys.MaxSeq),                  // before the first separator
			keys.Make([]byte{0xff, 0xff}, 0, keys.KindDelete), // after the last
		)
		for i := 0; i < 200; i++ {
			u := make([]byte, rng.Intn(14))
			for j := range u {
				u[j] = byte('a' + rng.Intn(5))
			}
			targets = append(targets, keys.SearchKey(u, uint64(rng.Intn(1100))))
		}
		for _, target := range targets {
			got, cmps := x.seekGE(target)
			ref.SeekGE(target)
			refCmps := ref.Cmps()
			if !ref.Valid() {
				if ref.Error() != nil || got != n {
					t.Fatalf("n=%d target %s: decoded entry %d, block iterator exhausted (err %v)", n, keys.String(target), got, ref.Error())
				}
			} else if h, _, _ := decodeHandle(ref.Value()); got >= n || x.handles[got] != h {
				t.Fatalf("n=%d target %s: decoded entry %d, block iterator at handle %v", n, keys.String(target), got, h)
			}
			if cmps != refCmps {
				t.Fatalf("n=%d target %s: %d comparisons, block iterator %d", n, keys.String(target), cmps, refCmps)
			}
		}
	}
}

// indexEntries builds index block contents over n entries (restart
// points every 16) and returns them with each entry's offset. value
// gives entry i's value; nil means a valid handle.
func indexEntries(n int, value func(i int) []byte) (contents []byte, offs []int) {
	var b blockBuilder
	for i := 0; i < n; i++ {
		offs = append(offs, len(b.buf))
		v := value(i)
		if v == nil {
			var hb [20]byte
			v = hb[:blockHandle{offset: uint64(i) * 100, length: 90}.encodeTo(hb[:])]
		}
		b.add(ik(fmt.Sprintf("sep%04d", i), 1), v)
	}
	return append([]byte(nil), b.finish()...), offs
}

// withIndex returns img with its index block replaced by contents,
// stored behind a valid trailer and named by a rewritten footer, so
// the block passes its CRC and only its structure is at fault.
func withIndex(t *testing.T, img, contents []byte) []byte {
	t.Helper()
	fh, ih, err := decodeFooter(img[len(img)-footerLen:], int64(len(img)), 1)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), img[:ih.offset]...)
	nh := blockHandle{offset: uint64(len(out)), length: uint64(len(contents))}
	out = append(out, contents...)
	crc := crc32.Update(0, crcTable, contents)
	crc = crc32.Update(crc, crcTable, []byte{0})
	out = append(out, 0)
	out = binary.LittleEndian.AppendUint32(out, crc)
	var footer [footerLen]byte
	fh.encodeTo(footer[0:])
	nh.encodeTo(footer[20:])
	binary.LittleEndian.PutUint64(footer[footerLen-8:], tableMagic)
	return append(out, footer[:]...)
}

// TestMalformedIndexIsCorruption opens tables whose index block passes
// its CRC but is malformed. Both readers must refuse them at open with
// a CorruptionError naming the file, and must not panic.
func TestMalformedIndexIsCorruption(t *testing.T) {
	img := buildImage(t, 100, BuilderOptions{BlockSize: 128, BloomBitsPerKey: 10})
	setRestart := func(contents []byte, j int, off int) []byte {
		nr := int(binary.LittleEndian.Uint32(contents[len(contents)-4:]))
		binary.LittleEndian.PutUint32(contents[len(contents)-4-4*nr+4*j:], uint32(off))
		return contents
	}
	cases := []struct {
		name     string
		contents func() []byte
		detail   string // what the error must say
	}{
		{"restart inside an entry", func() []byte {
			c, offs := indexEntries(40, func(int) []byte { return nil })
			return setRestart(c, 1, offs[16]+2)
		}, "is not an entry start"},
		{"restart past the last entry", func() []byte {
			c, _ := indexEntries(40, func(int) []byte { return nil })
			entriesEnd := len(c) - 4 - 4*3 // three restart points
			return setRestart(c, 2, entriesEnd)
		}, "past the last entry"},
		{"first entry not a restart", func() []byte {
			c, offs := indexEntries(20, func(int) []byte { return nil })
			return setRestart(c, 0, offs[1])
		}, "first entry is not a restart point"},
		{"truncated handle varint", func() []byte {
			c, _ := indexEntries(20, func(i int) []byte {
				if i == 7 {
					return []byte{0x90, 0x80} // offset varint cut mid-way
				}
				return nil
			})
			return c
		}, "bad handle offset"},
		{"short internal key", func() []byte {
			var b blockBuilder
			b.add([]byte("tiny"), []byte{1, 2})
			return append([]byte(nil), b.finish()...)
		}, "corrupt block entry"},
		{"shares more than the previous key", func() []byte {
			c, offs := indexEntries(3, func(int) []byte { return nil })
			c[offs[1]] = 60 // shared length
			return c
		}, "corrupt block entry"},
	}
	for _, tc := range cases {
		name := tc.name
		bad := withIndex(t, img, tc.contents())
		const fileNum = 77
		check := func(reader string, err error) {
			t.Helper()
			var ce *CorruptionError
			if !errors.As(err, &ce) || ce.FileNum != fileNum || !strings.Contains(ce.Detail, tc.detail) {
				t.Errorf("%s: %s returned %v, want a CorruptionError for file %d saying %q", name, reader, err, fileNum, tc.detail)
			}
		}
		_, err := NewReader(&byteFile{data: bad}, int64(len(bad)), fileNum, nil)
		check("NewReader", err)
		_, err = NewImageReader(bad, fileNum)
		check("NewImageReader", err)
	}

	// The committed fuzz seed (cmd/genfuzzcorpus) is such a table too.
	seed := corpusSeed(t, "testdata/fuzz/FuzzTableReader/index_restart_mid_entry")
	if _, err := NewImageReader(seed, 3); !IsCorruption(err) || !strings.Contains(err.Error(), "is not an entry start") {
		t.Errorf("index_restart_mid_entry seed: NewImageReader = %v, want a CorruptionError for a restart inside an entry", err)
	}

	// The same construction with a well-formed index opens and reads.
	good := withIndex(t, img, rawIndex(t, img))
	r, err := NewImageReader(good, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, found, err := r.Get(keys.SearchKey([]byte("key-000042"), keys.MaxSeq)); !found || err != nil {
		t.Fatalf("Get through a rebuilt index: found=%v err=%v", found, err)
	}
}
