package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"xpointdb/internal/clock"
	"xpointdb/internal/storage"
)

// pattern returns n bytes whose value depends on their file offset, so
// a byte read from the wrong chunk or the wrong place in it shows.
func pattern(off, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((off + i) * 31 >> 3)
	}
	return p
}

// TestChunkBoundaries writes files whose appends end one byte before,
// on and one byte after a chunk boundary, and one append that spans
// three chunks, then reads, crash-clones and corrupts around every
// boundary.
func TestChunkBoundaries(t *testing.T) {
	const c = chunkSize
	for _, tc := range []struct {
		name   string
		writes []int // sizes of successive appends
	}{
		{"ends one before", []int{c - 1}},
		{"ends on", []int{c}},
		{"ends one after", []int{c + 1}},
		{"second write crosses", []int{c - 1, 2}},
		{"second write starts on", []int{c, 1}},
		{"one write spans three chunks", []int{100, 2*c + 200}},
		{"second chunk ends on", []int{c + 1, c - 1}},
		{"records straddle", []int{c - 3, 7, c - 4, 1, c}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newMem()
			f, _ := fs.Create("f")
			var want []byte
			for _, n := range tc.writes {
				p := pattern(len(want), n)
				if m, err := f.Write(p); m != n || err != nil {
					t.Fatalf("Write(%d) = %d, %v", n, m, err)
				}
				want = append(want, p...)
			}
			size := len(want)
			if got, _ := fs.Size("f"); got != int64(size) {
				t.Fatalf("Size = %d, want %d", got, size)
			}
			if got := fs.TotalBytes(); got != int64(size) {
				t.Fatalf("TotalBytes = %d, want %d", got, size)
			}

			// Whole file, then a window around every chunk boundary.
			readEq := func(off, n int) {
				t.Helper()
				buf := make([]byte, n)
				m, err := f.ReadAt(buf, int64(off))
				if m != n || err != nil || !bytes.Equal(buf, want[off:off+n]) {
					t.Fatalf("ReadAt(%d bytes at %d) = %d, %v (equal: %v)", n, off, m, err, bytes.Equal(buf[:m], want[off:off+m]))
				}
			}
			readEq(0, size)
			for b := c; b < size; b += c {
				for _, w := range [][2]int{{b - 1, 1}, {b, 1}, {b - 1, 2}, {b - 5, 10}} {
					if w[0]+w[1] <= size {
						readEq(w[0], w[1])
					}
				}
			}
			if size > 2*c {
				readEq(c-7, c+14) // covers a whole chunk and both its edges
			}

			// The end of the file.
			if n, err := f.ReadAt(make([]byte, 8), int64(size)); n != 0 || err != io.EOF {
				t.Fatalf("ReadAt at size = %d, %v; want 0, io.EOF", n, err)
			}
			if n, err := f.ReadAt(nil, int64(size)); n != 0 || err != nil {
				t.Fatalf("empty ReadAt at size = %d, %v", n, err)
			}
			if n, err := f.ReadAt(make([]byte, 8), int64(size)+1); n != 0 || !errors.Is(err, io.EOF) || err == io.EOF {
				t.Fatalf("ReadAt past size = %d, %v; want 0 and an error wrapping io.EOF", n, err)
			}
			if n, err := f.ReadAt(make([]byte, 8), -1); n != 0 || err == nil {
				t.Fatalf("ReadAt at -1 = %d, %v", n, err)
			}
			short := make([]byte, 16)
			if n, err := f.ReadAt(short, int64(size-5)); n != 5 || err != io.EOF || !bytes.Equal(short[:5], want[size-5:]) {
				t.Fatalf("short read = %d, %v", n, err)
			}

			// CorruptBit in the last chunk flips that byte's low bit
			// and no other.
			at := size - 1
			if err := fs.CorruptBit("f", int64(at)); err != nil {
				t.Fatal(err)
			}
			want[at] ^= 1
			readEq(0, size)
			if err := fs.CorruptBit("f", int64(size)); err == nil {
				t.Fatal("CorruptBit at size succeeded")
			}
		})
	}
}

// TestCrashCloneAcrossChunks syncs a prefix that ends mid-chunk, on a
// chunk boundary and at the end of the file, and checks the clone holds
// exactly that prefix, stays appendable, and shares no memory with the
// original.
func TestCrashCloneAcrossChunks(t *testing.T) {
	const c = chunkSize
	for _, synced := range []int{0, 100, c - 1, c, c + 1, c + c/2, 2 * c, 2*c + 9} {
		t.Run(fmt.Sprint(synced), func(t *testing.T) {
			fs := newMem()
			f, _ := fs.Create("f")
			want := pattern(0, 2*c+9)
			f.Write(want[:synced])
			f.Sync()
			f.Write(want[synced:])

			clone := fs.CrashClone()
			if size, _ := clone.Size("f"); size != int64(synced) {
				t.Fatalf("clone size = %d, want %d", size, synced)
			}
			g, _ := clone.Open("f")
			got := make([]byte, synced)
			if n, err := g.ReadAt(got, 0); n != synced || err != nil || !bytes.Equal(got, want[:synced]) {
				t.Fatalf("clone read = %d, %v", n, err)
			}
			// The clone is all synced: a sync charges nothing, and an
			// append lands right behind the prefix.
			before := clone.Device().Stats().WriteBytes
			g.Sync()
			if after := clone.Device().Stats().WriteBytes; after != before {
				t.Fatalf("sync of a fresh clone charged %d bytes", after-before)
			}
			tail := pattern(synced, c+3)
			g.Write(tail)
			got = make([]byte, synced+len(tail))
			if n, err := g.ReadAt(got, 0); n != len(got) || err != nil || !bytes.Equal(got, append(want[:synced:synced], tail...)) {
				t.Fatalf("clone read after append = %d, %v", n, err)
			}
			// Damage to the original does not reach the clone, nor the
			// other way round.
			if synced > 0 {
				fs.CorruptBit("f", int64(synced-1))
				clone.CorruptBit("f", 0)
				b := make([]byte, 1)
				g.ReadAt(b, int64(synced-1))
				if synced > 1 && b[0] != want[synced-1] {
					t.Fatal("corrupting the original changed the clone")
				}
				f.ReadAt(b, 0)
				if synced > 1 && b[0] != want[0] {
					t.Fatal("corrupting the clone changed the original")
				}
			}
		})
	}
}

// TestMemFileAgainstModel drives one MemFS file and a plain []byte model
// through the same seeded sequence of appends, reads, syncs, crash
// clones and bit flips, and demands the same bytes, counts, errors and
// device charges from both at every step.
func TestMemFileAgainstModel(t *testing.T) {
	const steps = 12000
	rng := rand.New(rand.NewSource(20261001))
	dev := storage.New(clock.Real{}, storage.Null())
	fs := NewMem(dev)
	f, _ := fs.Create("f")
	var model []byte
	synced := 0
	var wantStats storage.Stats

	// sizes leans on the interesting lengths: tiny, a WAL record, an SST
	// block, just around a chunk, several chunks.
	size := func() int {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1, 2, 3:
			return 1 + rng.Intn(64)
		case 4, 5, 6:
			return 1 + rng.Intn(5000)
		case 7:
			return chunkSize - 2 + rng.Intn(5)
		case 8:
			return rng.Intn(3 * chunkSize)
		default:
			// Land the file size exactly on the next chunk boundary.
			return chunkSize - len(model)%chunkSize
		}
	}
	check := func(step int, what string, ok bool) {
		if !ok {
			t.Fatalf("step %d: %s (size %d, synced %d)", step, what, len(model), synced)
		}
	}
	for step := 0; step < steps; step++ {
		if len(model) > 8*chunkSize {
			// Start over on a new file, so that small sizes and the
			// first chunk's growth are revisited many times.
			f, _ = fs.Create("f")
			model, synced = model[:0], 0
		}
		switch op := rng.Intn(100); {
		case op < 45: // append
			p := make([]byte, size())
			rng.Read(p)
			n, err := f.Write(p)
			check(step, "append", n == len(p) && err == nil)
			model = append(model, p...)

		case op < 85: // ReadAt, sometimes at or past the end
			off := rng.Intn(len(model) + 1)
			switch rng.Intn(8) {
			case 0:
				off = len(model)
			case 1:
				off = len(model) + 1 + rng.Intn(10)
			case 2:
				off = -1 - rng.Intn(3)
			}
			buf := make([]byte, size())
			n, err := f.ReadAt(buf, int64(off))
			wantStats.Reads++
			wantStats.ReadBytes += int64(len(buf))
			switch {
			case off < 0 || off > len(model):
				check(step, "out-of-range read", n == 0 && errors.Is(err, io.EOF) && err != io.EOF)
			default:
				wantN := copy(make([]byte, len(buf)), model[off:])
				var wantErr error
				if wantN < len(buf) {
					wantErr = io.EOF
				}
				check(step, fmt.Sprintf("read %d at %d = %d, %v", len(buf), off, n, err),
					n == wantN && err == wantErr && bytes.Equal(buf[:n], model[off:off+wantN]))
			}

		case op < 93: // Sync: dirty bytes, in pieces of at most syncChunk
			check(step, "sync", f.Sync() == nil)
			dirty := len(model) - synced
			wantStats.Writes += int64((dirty + syncChunk - 1) / syncChunk)
			wantStats.WriteBytes += int64(dirty)
			wantStats.Syncs++
			synced = len(model)

		case op < 97: // CrashClone: exactly the synced prefix
			clone := fs.CrashClone()
			sz, err := clone.Size("f")
			check(step, "clone size", err == nil && sz == int64(synced))
			g, _ := clone.Open("f")
			buf := make([]byte, synced+1)
			n, err := g.ReadAt(buf, 0)
			wantStats.Reads++
			wantStats.ReadBytes += int64(len(buf))
			check(step, "clone content", n == synced && err == io.EOF && bytes.Equal(buf[:n], model[:synced]))

		default: // CorruptBit, sometimes out of range
			off := rng.Intn(len(model) + 2)
			err := fs.CorruptBit("f", int64(off))
			if off < len(model) {
				check(step, "corrupt", err == nil)
				model[off] ^= 1
			} else {
				check(step, "corrupt beyond size", err != nil)
			}
		}
		sz, _ := fs.Size("f")
		check(step, "size", sz == int64(len(model)) && fs.TotalBytes() == int64(len(model)))
		got := dev.Stats()
		check(step, fmt.Sprintf("device charges %+v, want %+v", got, wantStats),
			got.Reads == wantStats.Reads && got.ReadBytes == wantStats.ReadBytes &&
				got.Writes == wantStats.Writes && got.WriteBytes == wantStats.WriteBytes &&
				got.Syncs == wantStats.Syncs)
	}
	// Whole-file comparison at the end.
	buf := make([]byte, len(model))
	n, err := f.ReadAt(buf, 0)
	if n != len(model) || err != nil || !bytes.Equal(buf, model) {
		t.Fatalf("final read = %d, %v", n, err)
	}
}
