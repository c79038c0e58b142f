package engine

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
)

// openCompactionInput opens an SST for a sequential compaction scan:
// the whole file is fetched with one streaming read (the device pays a
// single base latency plus size/bandwidth — compaction readahead) into
// a window from db.windows, and every block is then served as a
// sub-slice of that window. Point lookups do NOT use this path; they
// pay per-block random reads. The compaction holds a reference on its
// base version for the whole run, so the input files cannot be deleted
// between pick and open. The caller owns the returned window and hands
// it back to db.windows once nothing reads the Reader any more.
func (db *DB) openCompactionInput(meta *manifest.FileMeta) (r *sstable.Reader, window []byte, err error) {
	f, err := db.fs.Open(manifest.SSTName(meta.Num))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	window = db.windows.get(int(meta.Size))
	if err := readWindow(f, window, 0, meta.Num); err != nil {
		db.windows.put(window)
		return nil, nil, err
	}
	// No block cache: compaction scans must not evict hot read blocks.
	r, err = sstable.NewImageReader(window, meta.Num)
	if err != nil {
		db.windows.put(window)
		return nil, nil, err
	}
	return r, window, nil
}

// openCompactionInputWindow opens an SST for a sub-compaction scan
// bounded to the internal keys in [startIK, endIK) (nil = unbounded):
// the table metadata (footer/index/filter) is read from the real file,
// the index is walked to find the byte window of data blocks the
// bounded scan can touch, and only that window is fetched with one
// streaming read. A nil reader with nil error means no block of the
// file intersects the range. The window is owned as for
// openCompactionInput; its length is the bytes fetched.
func (db *DB) openCompactionInputWindow(meta *manifest.FileMeta, startIK, endIK []byte) (r *sstable.Reader, window []byte, err error) {
	f, err := db.fs.Open(manifest.SSTName(meta.Num))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	base, err := sstable.NewReader(f, meta.Size, meta.Num, nil)
	if err != nil {
		return nil, nil, err
	}
	off, n, err := base.DataWindow(startIK, endIK)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, nil
	}
	window = db.windows.get(int(n))
	if err := readWindow(f, window, off, meta.Num); err != nil {
		db.windows.put(window)
		return nil, nil, err
	}
	// The returned reader serves every data block from the window; the
	// real file is closed before the merge starts, so a bounds mistake
	// surfaces as an error, never a device read.
	return base.WithWindow(window, off), window, nil
}

// readWindow fills window with the file's bytes from off on. Fewer
// bytes than asked for is corruption, not padding: the manifest says
// how long the file is, and a reused window's tail would otherwise
// hold an earlier file's bytes, whose blocks carry valid checksums.
func readWindow(f io.ReaderAt, window []byte, off int64, num uint64) error {
	n, err := f.ReadAt(window, off)
	if n < len(window) && (err == nil || errors.Is(err, io.EOF)) {
		return &sstable.CorruptionError{
			FileNum: num,
			Offset:  uint64(off) + uint64(n),
			Detail:  fmt.Sprintf("short read: %d of %d bytes at offset %d", n, len(window), off),
		}
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("engine: bulk read %d: %w", num, err)
	}
	return nil
}

// Bounds of an engine's free list of compaction input windows: at most
// maxFreeWindows windows holding at most maxFreeWindowBytes between
// them stay allocated between compactions (DESIGN §13).
const (
	maxFreeWindows     = 16
	maxFreeWindowBytes = 64 << 20
	// windowAlign rounds window capacities up, so files of nearly the
	// same size (every flush output, every full-size L1+ output) fit
	// one another's windows.
	windowAlign = 64 << 10
)

// windowPool is the free list compaction lanes take input windows from
// and return them to. A window is a plain byte slice; blocks served
// from it alias it, so a window goes back only when the sub-compaction
// that read it has finished with every Reader and iterator over it.
// The mutex is never held across anything that blocks.
type windowPool struct {
	mu    sync.Mutex
	free  [][]byte
	bytes int // summed capacity of free
}

// get returns a window of length n: the smallest free one that is large
// enough, or a new one.
func (p *windowPool) get(n int) []byte {
	p.mu.Lock()
	best := -1
	for i, w := range p.free {
		if cap(w) >= n && (best < 0 || cap(w) < cap(p.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		w := p.remove(best)
		p.mu.Unlock()
		return w[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, (n+windowAlign-1)/windowAlign*windowAlign)
}

// put returns w to the free list. When the list is over a bound, the
// smallest windows are dropped first: a large window serves any file
// that a small one does.
func (p *windowPool) put(w []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, w)
	p.bytes += cap(w)
	for len(p.free) > maxFreeWindows || p.bytes > maxFreeWindowBytes {
		small := 0
		for i, v := range p.free {
			if cap(v) < cap(p.free[small]) {
				small = i
			}
		}
		p.remove(small)
	}
}

// remove takes free[i] off the list and returns it. Caller holds p.mu.
func (p *windowPool) remove(i int) []byte {
	w := p.free[i]
	last := len(p.free) - 1
	p.free[i] = p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	p.bytes -= cap(w)
	return w
}
