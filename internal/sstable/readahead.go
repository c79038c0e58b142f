package sstable

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Read-ahead sizes of a table iterator's forward scan (DESIGN §19).
// The first refill reads up to readaheadMin bytes of whole blocks, and
// each later one twice the one before, up to readaheadMax.
const (
	readaheadMin = 16 << 10
	readaheadMax = 256 << 10
	// readaheadClasses is the number of buffer sizes, readaheadMin<<k
	// for k < readaheadClasses; the largest is readaheadMax.
	readaheadClasses = 5
)

// readaheadPools hold read-ahead buffers by size class: class k holds
// buffers of readaheadMin<<k bytes.
var readaheadPools [readaheadClasses]sync.Pool

// readahead is a table iterator's read-ahead buffer: buf holds the
// file's bytes from offset off on, whole contiguous data blocks with
// their trailers. Blocks are served from it as sub-slices, valid until
// the next refill.
type readahead struct {
	p     *[]byte // the buffer buf is a prefix of; nil until the first refill
	class int     // p's pool, or -1: a one-off buffer for a block over readaheadMax
	buf   []byte
	off   uint64
	next  int // bytes the next refill reads at most; 0 before the first
}

// holds reports whether block h, trailer included, lies inside buf.
func (ra *readahead) holds(h blockHandle) bool {
	if h.offset < ra.off {
		return false
	}
	lo, n := h.offset-ra.off, uint64(len(ra.buf))
	return lo <= n && h.length <= n-lo && blockTrailerLen <= n-lo-h.length
}

// block returns block h, which buf holds, checked against its CRC and
// codec.
func (ra *readahead) block(r *Reader, h blockHandle) ([]byte, error) {
	lo := h.offset - ra.off
	hi := lo + h.length + blockTrailerLen
	return r.checkBlock(h, ra.buf[lo:hi:hi])
}

// refill reads the data blocks from index entry i on into buf with one
// ReadAt: whole blocks, contiguous in the file, as many as fit in the
// refill size but at least block i, never past the last data block.
// Fewer bytes than asked for is corruption, as for a compaction
// window: the manifest says how long the file is.
func (ra *readahead) refill(r *Reader, i int) error {
	size := ra.next
	if size == 0 {
		size = readaheadMin
	}
	ra.next = min(2*size, readaheadMax)
	first := r.index.handles[i]
	if err := r.checkHandle(first); err != nil {
		return err
	}
	end := first.offset + first.length + blockTrailerLen
	for j := i + 1; j < r.index.len(); j++ {
		h := r.index.handles[j]
		if h.offset != end || r.checkHandle(h) != nil ||
			h.offset+h.length+blockTrailerLen-first.offset > uint64(size) {
			break
		}
		end = h.offset + h.length + blockTrailerLen
	}
	ra.reserve(int(end - first.offset))
	n, err := r.f.ReadAt(ra.buf, int64(first.offset))
	if n < len(ra.buf) && (err == nil || errors.Is(err, io.EOF)) {
		want := len(ra.buf)
		ra.buf = nil
		return &CorruptionError{
			FileNum: r.fileNum,
			Offset:  first.offset + uint64(n),
			Detail:  fmt.Sprintf("short read: %d of %d bytes at offset %d", n, want, first.offset),
		}
	}
	if err != nil && err != io.EOF {
		ra.buf = nil
		return fmt.Errorf("sstable: read ahead in %d: %w", r.fileNum, err)
	}
	ra.off = first.offset
	return nil
}

// reserve points buf at n bytes of the buffer, first trading it for
// one from the pool of the smallest class that holds n if it is too
// small.
func (ra *readahead) reserve(n int) {
	if ra.p == nil || cap(*ra.p) < n {
		ra.release()
		ra.class = 0
		for ra.class < readaheadClasses && readaheadMin<<ra.class < n {
			ra.class++
		}
		if ra.class == readaheadClasses {
			b := make([]byte, n)
			ra.p, ra.class = &b, -1
		} else if p, ok := readaheadPools[ra.class].Get().(*[]byte); ok {
			ra.p = p
		} else {
			b := make([]byte, readaheadMin<<ra.class)
			ra.p = &b
		}
	}
	ra.buf = (*ra.p)[:n]
}

// release hands the buffer back to its pool; buf then holds nothing.
func (ra *readahead) release() {
	if ra.p != nil && ra.class >= 0 {
		readaheadPools[ra.class].Put(ra.p)
	}
	ra.p, ra.buf = nil, nil
}
