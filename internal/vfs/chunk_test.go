package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

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

// chunkID identifies a chunk by the address of its backing array.
func chunkID(c []byte) *byte { return unsafe.SliceData(c[:cap(c)]) }

// ownedChunks returns the whole chunks f holds.
func ownedChunks(f *memFile) [][]byte {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var cs [][]byte
	if f.full != nil {
		cs = append(cs, *f.full...)
	}
	return append(cs, f.tail)
}

// TestChunkReuseAgainstModel drives several names and handles through
// a seeded sequence of Create (often over a live file), Open, appends,
// reads, Close (sometimes twice), Remove and Rename (often over a live
// target), against a model that keeps each file's bytes for as long as
// a handle to it is open. Every open handle must keep reading its own
// file's bytes while other files are written, a chunk must belong to
// at most one file that a name or an open handle still reaches, and no
// such chunk may sit on the free list. The run must also see chunks of
// dropped files come back into use.
func TestChunkReuseAgainstModel(t *testing.T) {
	const steps = 4000
	rng := rand.New(rand.NewSource(20261018))
	fs := newMem()
	names := []string{"a", "b", "c"}

	type modelFile struct{ data []byte }
	type handle struct {
		f   File
		mf  *modelFile
		mem *memFile
	}
	byName := map[string]*modelFile{}
	var open []*handle
	freed := map[*byte]bool{} // every chunk that was ever on the free list
	reused := 0

	check := func(step int, what string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("step %d: %s", step, what)
		}
	}
	for step := 0; step < steps; step++ {
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(100); {
		case op < 10: // Create, replacing any file of that name
			f, _ := fs.Create(name)
			mf := &modelFile{}
			byName[name] = mf
			open = append(open, &handle{f: f, mf: mf, mem: f.(*memHandle).f})

		case op < 20: // Open
			f, err := fs.Open(name)
			mf, ok := byName[name]
			check(step, "open "+name, (err == nil) == ok)
			if ok {
				open = append(open, &handle{f: f, mf: mf, mem: f.(*memHandle).f})
			}

		case op < 50: // append through a handle, up to three chunks
			if len(open) == 0 {
				continue
			}
			h := open[rng.Intn(len(open))]
			if len(h.mf.data) > 5*chunkSize {
				continue
			}
			p := make([]byte, rng.Intn(3*chunkSize))
			rng.Read(p)
			n, err := h.f.Write(p)
			check(step, "append", n == len(p) && err == nil)
			h.mf.data = append(h.mf.data, p...)

		case op < 75: // read a whole file through a handle
			if len(open) == 0 {
				continue
			}
			h := open[rng.Intn(len(open))]
			buf := make([]byte, len(h.mf.data))
			n, err := h.f.ReadAt(buf, 0)
			check(step, fmt.Sprintf("read of %d bytes = %d, %v", len(buf), n, err),
				n == len(buf) && err == nil && bytes.Equal(buf, h.mf.data))

		case op < 87: // Close, and sometimes Close again
			if len(open) == 0 {
				continue
			}
			i := rng.Intn(len(open))
			h := open[i]
			open = append(open[:i], open[i+1:]...)
			check(step, "close", h.f.Close() == nil)
			if rng.Intn(3) == 0 {
				check(step, "second close", h.f.Close() == nil)
			}

		case op < 94: // Remove
			_, ok := byName[name]
			check(step, "remove "+name, (fs.Remove(name) == nil) == ok)
			delete(byName, name)

		default: // Rename, often over a live target
			to := names[rng.Intn(len(names))]
			mf, ok := byName[name]
			check(step, "rename "+name, (fs.Rename(name, to) == nil) == ok)
			if ok {
				delete(byName, name)
				byName[to] = mf
			}
		}

		// A reachable file is one a name or an open handle leads to.
		reachable := map[*memFile]bool{}
		fs.mu.Lock()
		for _, f := range fs.files {
			reachable[f] = true
		}
		fs.mu.Unlock()
		handles := map[*memFile]int32{}
		for _, h := range open {
			reachable[h.mem] = true
			handles[h.mem]++
		}
		owner := map[*byte]*memFile{}
		for f := range reachable {
			fs.mu.Lock()
			n := f.handles
			fs.mu.Unlock()
			check(step, fmt.Sprintf("%s has %d handles, %d open", f.name, n, handles[f]), n == handles[f])
			for _, c := range ownedChunks(f) {
				if cap(c) != chunkSize {
					continue
				}
				id := chunkID(c)
				check(step, "a chunk belongs to two reachable files", owner[id] == nil)
				owner[id] = f
				if freed[id] {
					reused++
					delete(freed, id) // count each return to use once
				}
			}
		}
		fs.freeMu.Lock()
		for _, c := range fs.freeChunks {
			id := chunkID(c)
			check(step, "a free chunk belongs to a reachable file", owner[id] == nil)
			freed[id] = true
		}
		check(step, "free list over its bound", len(fs.freeChunks) <= maxFreeChunks)
		fs.freeMu.Unlock()
	}
	if reused == 0 {
		t.Fatal("no chunk of a dropped file was ever reused")
	}
	t.Logf("%d chunks reused", reused)
}

// TestDroppedOnlyAfterLastClose removes a file with two handles open,
// closes one of them twice, and checks the file still reads whole
// while another file is written, then that the last Close frees its
// chunks and the next file takes them.
func TestDroppedOnlyAfterLastClose(t *testing.T) {
	fs := newMem()
	want := pattern(0, 3*chunkSize+5)
	f, _ := fs.Create("f")
	f.Write(want)
	g, _ := fs.Open("f")
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // a second Close must not count against g
	if n := len(fs.freeChunks); n != 0 {
		t.Fatalf("%d chunks freed while a handle is open", n)
	}
	other, _ := fs.Create("other")
	other.Write(pattern(7, 4*chunkSize))
	got := make([]byte, len(want))
	if n, err := g.ReadAt(got, 0); n != len(want) || err != nil || !bytes.Equal(got, want) {
		t.Fatalf("open handle of a removed file reads %d, %v (equal: %v)", n, err, bytes.Equal(got, want))
	}
	g.Close()
	if n := len(fs.freeChunks); n != 4 {
		t.Fatalf("last Close freed %d chunks, want 4 (3 full ones and the tail)", n)
	}
	// A new file's first chunk grows by append; its later ones come
	// off the free list.
	h, _ := fs.Create("h")
	h.Write(pattern(0, 2*chunkSize+1))
	if n := len(fs.freeChunks); n != 2 {
		t.Fatalf("%d chunks left on the free list, want 2", n)
	}
}

// TestMemFileSizeClass keeps memFile in the 96-byte allocation class,
// what every Create pays for.
func TestMemFileSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(memFile{}); n > 96 {
		t.Fatalf("memFile is %d bytes, over the 96-byte size class", n)
	}
}

// TestChunkReuseConcurrent has several goroutines each write, reopen,
// remove, read back and close multi-chunk files of their own, so that
// chunks one goroutine's files drop are taken by another's appends. Run
// it under -race: the free list is shared by every file of the MemFS.
func TestChunkReuseConcurrent(t *testing.T) {
	fs := newMem()
	const workers, rounds = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("w%d-%d", w, r)
				want := pattern(w*7919+r, 2*chunkSize+w*100+r)
				f, _ := fs.Create(name)
				f.Write(want[:chunkSize+1])
				g, _ := fs.Open(name)
				f.Write(want[chunkSize+1:])
				f.Close()
				if err := fs.Remove(name); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, len(want))
				if n, err := g.ReadAt(got, 0); n != len(want) || err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: read %d, %v (equal: %v)", name, n, err, bytes.Equal(got, want))
					return
				}
				g.Close()
			}
		}(w)
	}
	wg.Wait()
}
