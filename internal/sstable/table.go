package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"xpointdb/internal/bloom"
	"xpointdb/internal/cache"
	"xpointdb/internal/iterator"
	"xpointdb/internal/keys"
	"xpointdb/internal/vfs"
)

// CorruptionError reports a checksum or structural integrity failure in
// a table. It identifies the file, not just the failing offset, so
// events, logs, and the engine's quarantine/repair path can act on it.
type CorruptionError struct {
	// FileNum is the table's file number (NNNNNN.sst).
	FileNum uint64
	// Offset is the file offset of the damaged region (0 when the
	// failure is file-scoped, e.g. a whole-file checksum mismatch).
	Offset uint64
	// Detail describes the failure.
	Detail string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("sstable: file %d corrupt at offset %d: %s", e.FileNum, e.Offset, e.Detail)
}

// IsCorruption reports whether err wraps a CorruptionError.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

const (
	// blockTrailerLen is the per-block on-disk trailer: codec byte +
	// CRC-32C (4 bytes). Blocks are stored raw, and the builder writes
	// codec 0; the reader rejects any other codec as corruption.
	blockTrailerLen = 5

	// footerLen is the fixed footer: two padded block handles
	// (filter, index: 2×10 bytes each) + magic.
	footerLen = 48

	tableMagic = 0x7870646273737431 // "xpdbsst1"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockHandle locates a block within the file.
type blockHandle struct {
	offset uint64
	length uint64 // excluding trailer
}

func (h blockHandle) encodeTo(dst []byte) int {
	n := binary.PutUvarint(dst, h.offset)
	n += binary.PutUvarint(dst[n:], h.length)
	return n
}

func decodeHandle(p []byte) (blockHandle, int, error) {
	off, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		return blockHandle{}, 0, fmt.Errorf("sstable: bad handle offset")
	}
	length, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		return blockHandle{}, 0, fmt.Errorf("sstable: bad handle length")
	}
	return blockHandle{offset: off, length: length}, n1 + n2, nil
}

// BuilderOptions configures table construction.
type BuilderOptions struct {
	// BlockSize is the uncompressed data block size target.
	BlockSize int
	// BloomBitsPerKey sizes the table's Bloom filter; 0 disables it.
	BloomBitsPerKey int
}

// DefaultBuilderOptions mirrors RocksDB defaults: 4 KiB blocks,
// 10-bit Bloom filters.
func DefaultBuilderOptions() BuilderOptions {
	return BuilderOptions{BlockSize: 4096, BloomBitsPerKey: 10}
}

// Builder writes a table to a file. Entries must be added in ascending
// internal-key order. Call Finish, then sync/close the file.
type Builder struct {
	f    vfs.File
	opts BuilderOptions

	data   blockBuilder
	index  blockBuilder
	offset uint64

	pendingHandle blockHandle
	pendingKey    []byte // last key of the just-finished block
	havePending   bool

	filterHashes []uint32 // bloom.Hash of each entry's user key
	numEntries   int
	smallest     []byte
	largest      []byte
	fileCRC      uint32 // running CRC-32C over every byte written
	trailer      [blockTrailerLen]byte
	err          error
}

// NewBuilder returns a Builder writing to f.
func NewBuilder(f vfs.File, opts BuilderOptions) *Builder {
	if opts.BlockSize <= 0 {
		opts.BlockSize = 4096
	}
	return &Builder{f: f, opts: opts}
}

// Add appends an entry. Keys must arrive in strictly ascending order.
func (b *Builder) Add(ikey, value []byte) error {
	if b.err != nil {
		return b.err
	}
	if b.largest != nil && keys.Compare(ikey, b.largest) <= 0 {
		b.err = fmt.Errorf("sstable: keys out of order: %s then %s", keys.String(b.largest), keys.String(ikey))
		return b.err
	}
	if b.havePending {
		b.flushIndexEntry(ikey)
	}
	if b.smallest == nil {
		b.smallest = append([]byte(nil), ikey...)
	}
	b.largest = append(b.largest[:0], ikey...)
	if b.opts.BloomBitsPerKey > 0 {
		b.filterHashes = append(b.filterHashes, bloom.Hash(keys.UserKey(ikey)))
	}
	b.data.add(ikey, value)
	b.numEntries++
	if b.data.estimatedSize() >= b.opts.BlockSize {
		if err := b.finishDataBlock(); err != nil {
			return err
		}
	}
	return nil
}

// flushIndexEntry emits the index entry for the finished block using a
// separator key: the shortest key ≥ last key of the block and < the
// first key of the next block (or the last key itself if next is nil).
func (b *Builder) flushIndexEntry(next []byte) {
	sep := separator(b.pendingKey, next)
	var hbuf [20]byte
	n := b.pendingHandle.encodeTo(hbuf[:])
	b.index.add(sep, hbuf[:n])
	b.havePending = false
}

// separator returns a key k with prev ≤ k < next (internal-key order)
// that is as short as possible. With next == nil it returns prev.
func separator(prev, next []byte) []byte {
	if next == nil {
		return prev
	}
	// Shorten the user-key portion where possible.
	up, un := keys.UserKey(prev), keys.UserKey(next)
	n := len(up)
	if len(un) < n {
		n = len(un)
	}
	i := 0
	for i < n && up[i] == un[i] {
		i++
	}
	if i < n && up[i]+1 < un[i] {
		short := make([]byte, i+1)
		copy(short, up[:i])
		short[i] = up[i] + 1
		// Append a max trailer so the separator sorts before any
		// real entry with that user key.
		return keys.AppendTrailer(short, keys.MaxSeq, keys.Kind(0xff))
	}
	return prev
}

func (b *Builder) finishDataBlock() error {
	if b.data.empty() {
		return nil
	}
	contents := b.data.finish()
	h, err := b.writeBlock(contents)
	if err != nil {
		b.err = err
		return err
	}
	b.pendingHandle = h
	b.pendingKey = append(b.pendingKey[:0], b.data.lastKey...)
	b.havePending = true
	b.data.reset()
	return nil
}

// writeBlock stores contents raw behind its trailer (codec 0).
func (b *Builder) writeBlock(contents []byte) (blockHandle, error) {
	h := blockHandle{offset: b.offset, length: uint64(len(contents))}
	trailer := b.trailer[:] // a field: a local array passed to Write would escape
	trailer[0] = 0
	crc := crc32.Update(0, crcTable, contents)
	crc = crc32.Update(crc, crcTable, trailer[:1])
	binary.LittleEndian.PutUint32(trailer[1:], crc)
	if _, err := b.f.Write(contents); err != nil {
		return h, fmt.Errorf("sstable: write block: %w", err)
	}
	if _, err := b.f.Write(trailer); err != nil {
		return h, fmt.Errorf("sstable: write trailer: %w", err)
	}
	b.fileCRC = crc32.Update(b.fileCRC, crcTable, contents)
	b.fileCRC = crc32.Update(b.fileCRC, crcTable, trailer)
	b.offset += uint64(len(contents)) + blockTrailerLen
	return h, nil
}

// Finish writes the filter and index blocks and the footer. It returns
// the total file size. The caller owns syncing and closing the file.
func (b *Builder) Finish() (int64, error) {
	if b.err != nil {
		return 0, b.err
	}
	if err := b.finishDataBlock(); err != nil {
		return 0, err
	}
	if b.havePending {
		b.flushIndexEntry(nil)
	}

	var filterHandle blockHandle
	if b.opts.BloomBitsPerKey > 0 && len(b.filterHashes) > 0 {
		f := bloom.FromHashes(b.filterHashes, b.opts.BloomBitsPerKey)
		h, err := b.writeBlock([]byte(f))
		if err != nil {
			return 0, err
		}
		filterHandle = h
	}
	indexContents := b.index.finish()
	indexHandle, err := b.writeBlock(indexContents)
	if err != nil {
		return 0, err
	}

	var footer [footerLen]byte
	filterHandle.encodeTo(footer[0:])
	indexHandle.encodeTo(footer[20:])
	binary.LittleEndian.PutUint64(footer[footerLen-8:], tableMagic)
	if _, err := b.f.Write(footer[:]); err != nil {
		return 0, fmt.Errorf("sstable: write footer: %w", err)
	}
	b.fileCRC = crc32.Update(b.fileCRC, crcTable, footer[:])
	b.offset += footerLen
	return int64(b.offset), nil
}

// Checksum returns the CRC-32C of every byte written to the file. It is
// the table's whole-file checksum, valid after Finish; the manifest
// records it so corruption anywhere in the file — including regions no
// block CRC covers, like footer padding — is detectable later.
func (b *Builder) Checksum() uint32 { return b.fileCRC }

// NumEntries returns the number of entries added so far.
func (b *Builder) NumEntries() int { return b.numEntries }

// EstimatedSize returns the current file size plus buffered data.
func (b *Builder) EstimatedSize() int64 {
	return int64(b.offset) + int64(b.data.estimatedSize())
}

// Smallest and Largest return copies of the bounding internal keys.
func (b *Builder) Smallest() []byte { return append([]byte(nil), b.smallest...) }

// Largest returns the largest internal key added.
func (b *Builder) Largest() []byte { return append([]byte(nil), b.largest...) }

// ---------------------------------------------------------------------
// Reader

// Reader provides random access into a finished table.
type Reader struct {
	f       vfs.File
	fileNum uint64
	size    int64
	cache   *cache.Cache

	// window, when set, holds the file's bytes from file offset
	// windowOff on, already in memory: blocks inside it are served as
	// sub-slices of it, with no read and no copy. The caller owns the
	// bytes and must not reuse them while the Reader, or any block it
	// returned, is still in use.
	window    []byte
	windowOff int64

	index  index // decoded once, in loadMeta; the raw block is not kept
	filter bloom.Filter
}

// NewReader opens a table of the given size, reading footer, index and
// filter eagerly (they are retained in memory, the index decoded, as
// RocksDB does with table metadata pinned in the table cache). c may
// be nil to disable block caching.
func NewReader(f vfs.File, size int64, fileNum uint64, c *cache.Cache) (*Reader, error) {
	filterHandle, indexHandle, err := readFooter(f, size, fileNum)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, fileNum: fileNum, size: size, cache: c}
	if err := r.loadMeta(filterHandle, indexHandle); err != nil {
		return nil, err
	}
	return r, nil
}

// NewImageReader opens a table from image, the whole file already in
// memory. Every block, index and filter included, is a sub-slice of
// image, checked against its CRC when it is served; nothing is read
// and nothing is copied. image belongs to the caller, who must keep it
// unchanged while the Reader is in use. There is no block cache.
func NewImageReader(image []byte, fileNum uint64) (*Reader, error) {
	size := int64(len(image))
	if size < footerLen {
		return nil, footerTooSmall(size, fileNum)
	}
	filterHandle, indexHandle, err := decodeFooter(image[size-footerLen:], size, fileNum)
	if err != nil {
		return nil, err
	}
	r := &Reader{fileNum: fileNum, size: size, window: image}
	if err := r.loadMeta(filterHandle, indexHandle); err != nil {
		return nil, err
	}
	return r, nil
}

// loadMeta reads the filter block and reads and decodes the index
// block.
func (r *Reader) loadMeta(filterHandle, indexHandle blockHandle) error {
	raw, err := r.readBlock(indexHandle)
	if err != nil {
		return fmt.Errorf("sstable: read index of %d: %w", r.fileNum, err)
	}
	if r.index, err = r.decodeIndexBlock(raw, indexHandle); err != nil {
		return err
	}
	if filterHandle.length > 0 {
		fb, err := r.readBlock(filterHandle)
		if err != nil {
			return fmt.Errorf("sstable: read filter of %d: %w", r.fileNum, err)
		}
		r.filter = bloom.Filter(fb)
	}
	return nil
}

// decodeIndexBlock decodes the index block read from h, reporting a
// fault as corruption of this file.
func (r *Reader) decodeIndexBlock(raw []byte, h blockHandle) (index, error) {
	x, err := decodeIndex(raw)
	if err != nil {
		return index{}, &CorruptionError{
			FileNum: r.fileNum,
			Offset:  h.offset,
			Detail:  fmt.Sprintf("index block: %v", err),
		}
	}
	return x, nil
}

// footerTooSmall is the corruption of a table shorter than its footer.
func footerTooSmall(size int64, fileNum uint64) error {
	return &CorruptionError{
		FileNum: fileNum,
		Detail:  fmt.Sprintf("file too small for footer (%d bytes)", size),
	}
}

// readFooter reads and decodes the fixed footer: magic check plus the
// filter and index block handles.
func readFooter(f vfs.File, size int64, fileNum uint64) (filterHandle, indexHandle blockHandle, err error) {
	if size < footerLen {
		return blockHandle{}, blockHandle{}, footerTooSmall(size, fileNum)
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-footerLen); err != nil {
		return blockHandle{}, blockHandle{}, fmt.Errorf("sstable: read footer of %d: %w", fileNum, err)
	}
	return decodeFooter(footer[:], size, fileNum)
}

// decodeFooter decodes the footer bytes of a size-byte table.
func decodeFooter(footer []byte, size int64, fileNum uint64) (filterHandle, indexHandle blockHandle, err error) {
	if got := binary.LittleEndian.Uint64(footer[footerLen-8:]); got != tableMagic {
		return blockHandle{}, blockHandle{}, &CorruptionError{
			FileNum: fileNum,
			Offset:  uint64(size - 8),
			Detail:  fmt.Sprintf("bad magic %#x", got),
		}
	}
	filterHandle, _, err = decodeHandle(footer[0:20])
	if err != nil {
		return blockHandle{}, blockHandle{}, &CorruptionError{
			FileNum: fileNum,
			Offset:  uint64(size - footerLen),
			Detail:  fmt.Sprintf("footer filter handle: %v", err),
		}
	}
	indexHandle, _, err = decodeHandle(footer[20:40])
	if err != nil {
		return blockHandle{}, blockHandle{}, &CorruptionError{
			FileNum: fileNum,
			Offset:  uint64(size - footerLen + 20),
			Detail:  fmt.Sprintf("footer index handle: %v", err),
		}
	}
	return filterHandle, indexHandle, nil
}

// readBlock reads and verifies a block, bypassing the cache.
func (r *Reader) readBlock(h blockHandle) ([]byte, error) {
	if err := r.checkHandle(h); err != nil {
		return nil, err
	}
	var buf []byte
	if r.window != nil {
		lo, n := int64(h.offset)-r.windowOff, int64(h.length+blockTrailerLen)
		if lo < 0 || n > int64(len(r.window))-lo {
			return nil, fmt.Errorf("sstable: block (%d,%d) of %d outside the in-memory window [%d,%d): %w",
				h.offset, h.length, r.fileNum, r.windowOff, r.windowOff+int64(len(r.window)), io.EOF)
		}
		buf = r.window[lo : lo+n : lo+n]
	} else {
		buf = make([]byte, h.length+blockTrailerLen)
		if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
			return nil, err
		}
	}
	return r.checkBlock(h, buf)
}

// checkHandle validates h against the file size before anything is
// allocated or read for it: handles come from on-disk bytes (footer,
// index entries) and a corrupt one must not trigger a huge allocation
// or an offset overflow. Each comparison is individually overflow-safe.
func (r *Reader) checkHandle(h blockHandle) error {
	sz := uint64(r.size)
	if h.offset > sz || h.length > sz-h.offset ||
		blockTrailerLen > sz-h.offset-h.length {
		return &CorruptionError{
			FileNum: r.fileNum,
			Offset:  h.offset,
			Detail:  fmt.Sprintf("block handle (%d,%d) exceeds file size %d", h.offset, h.length, r.size),
		}
	}
	return nil
}

// checkBlock verifies buf, block h's bytes with their trailer, against
// the trailer's CRC and codec, and returns the block contents, a
// sub-slice of buf.
func (r *Reader) checkBlock(h blockHandle, buf []byte) ([]byte, error) {
	contents, trailer := buf[:h.length], buf[h.length:]
	crc := crc32.Update(0, crcTable, contents)
	crc = crc32.Update(crc, crcTable, trailer[:1])
	if want := binary.LittleEndian.Uint32(trailer[1:]); crc != want {
		return nil, &CorruptionError{
			FileNum: r.fileNum,
			Offset:  h.offset,
			Detail:  fmt.Sprintf("block fails checksum (computed %#x, stored %#x)", crc, want),
		}
	}
	if trailer[0] != 0 {
		return nil, &CorruptionError{
			FileNum: r.fileNum,
			Offset:  h.offset,
			Detail:  fmt.Sprintf("block has unknown codec %d", trailer[0]),
		}
	}
	return contents, nil
}

// getBlock returns block contents via the cache; hit reports whether
// the block came from the cache (always false with no cache attached).
func (r *Reader) getBlock(h blockHandle) (contents []byte, hit bool, err error) {
	if r.cache == nil {
		contents, err = r.readBlock(h)
		return contents, false, err
	}
	if v, ok := r.cache.Get(r.fileNum, h.offset); ok {
		return v, true, nil
	}
	contents, err = r.readBlock(h)
	if err != nil {
		return nil, false, err
	}
	r.cache.Insert(r.fileNum, h.offset, contents)
	return contents, false, nil
}

// MayContainHash consults the Bloom filter for the user key whose
// bloom.Hash is h: a Get probing several tables hashes its key once.
// Without a filter it returns true.
func (r *Reader) MayContainHash(h uint32) bool {
	if r.filter == nil {
		return true
	}
	return r.filter.MayContainHash(h)
}

// ProbeStats reports the per-probe costs of one Get: key comparisons
// (CPU cost accounting) and block-cache traffic (per-operation
// PerfContext attribution).
type ProbeStats struct {
	Cmps        int
	CacheHits   int
	CacheMisses int
}

// Get returns the first entry with internal key ≥ ikey, if it exists in
// this table. found=false means the table holds no such entry. cmps
// reports the key comparisons performed (CPU cost accounting).
//
// The data block iterator and its key buffer live on this frame. The
// value is a sub-slice of the block, cut by offsets rather than read
// from the iterator, so nothing returned points into the frame; the
// key is returned, so it is copied out, the lookup's one allocation.
// Lookup, which returns no key, makes none.
func (r *Reader) Get(ikey []byte) (key, value []byte, cmps int, found bool, err error) {
	var st ProbeStats
	var keyBuf [blockKeyCap]byte
	data := blockIter{key: keyBuf[:0]}
	contents, found, err := r.seek(ikey, &st, &data)
	if !found {
		return nil, nil, st.Cmps, false, err
	}
	return append([]byte(nil), data.key...), data.valueIn(contents), st.Cmps, true, nil
}

// Lookup finds the entry a point read of ikey's user key sees in this
// table: the first entry with internal key ≥ ikey, if it holds the
// same user key. ok reports whether there is one; value and kind are
// then its value (a sub-slice of the block) and kind. The lookup
// allocates nothing: see Get.
func (r *Reader) Lookup(ikey []byte, st *ProbeStats) (value []byte, kind keys.Kind, ok bool, err error) {
	var keyBuf [blockKeyCap]byte
	data := blockIter{key: keyBuf[:0]}
	contents, found, err := r.seek(ikey, st, &data)
	if !found || !bytes.Equal(keys.UserKey(data.key), keys.UserKey(ikey)) {
		return nil, 0, false, err
	}
	_, kind = keys.Trailer(data.key)
	return data.valueIn(contents), kind, true, nil
}

// blockKeyCap is the key buffer a lookup's data iterator starts with
// on the stack: internal keys up to this long decode without growing.
const blockKeyCap = 64

// seek positions data at the first entry ≥ ikey and returns the block
// it points into; found=false means the table holds no such entry.
func (r *Reader) seek(ikey []byte, st *ProbeStats, data *blockIter) (contents []byte, found bool, err error) {
	i, cmps := r.index.seekGE(ikey)
	st.Cmps += cmps
	if i == r.index.len() {
		return nil, false, nil
	}
	contents, hit, err := r.getBlock(r.index.handles[i])
	if err != nil {
		return nil, false, err
	}
	if hit {
		st.CacheHits++
	} else {
		st.CacheMisses++
	}
	if err := data.init(contents); err != nil {
		return nil, false, err
	}
	data.SeekGE(ikey)
	st.Cmps += data.Cmps()
	if !data.Valid() {
		return nil, false, data.Error()
	}
	return contents, true, nil
}

// Size returns the file size.
func (r *Reader) Size() int64 { return r.size }

// DataWindow returns the byte span [off, off+n) of the contiguous data
// blocks a forward scan over internal keys in [start, end) can touch
// (start inclusive, end exclusive; nil means unbounded). The span
// includes one block past the end boundary: a two-level iterator steps
// into the next block before its caller can see that the first key
// there is out of range. n == 0 means no block can hold a key in the
// range.
func (r *Reader) DataWindow(start, end []byte) (off, n int64, err error) {
	i := 0
	if start != nil {
		i, _ = r.index.seekGE(start)
	}
	if i == r.index.len() {
		return 0, 0, nil
	}
	first := r.index.handles[i]
	last := first
	for ; i < r.index.len(); i++ {
		if h := r.index.handles[i]; h.offset >= last.offset {
			last = h
		}
		if end != nil && keys.Compare(r.index.key(i), end) >= 0 {
			// This block's separator reaches end, so the scan stops
			// inside it or at the first key of the block after it —
			// include that one block and stop.
			if i+1 < r.index.len() && r.index.handles[i+1].offset >= last.offset {
				last = r.index.handles[i+1]
			}
			break
		}
	}
	off = int64(first.offset)
	n = int64(last.offset+last.length+blockTrailerLen) - off
	return off, n, nil
}

// WithWindow returns a Reader sharing r's parsed metadata (index and
// filter, already pinned in memory) that serves data blocks from
// window, the file's bytes from offset off on, as sub-slices of it —
// used by compaction inputs whose data window was bulk-read into
// memory after the metadata was read from the real file. A block
// outside the window is an error wrapping io.EOF, never a file read.
// The window's ownership is as for NewImageReader.
func (r *Reader) WithWindow(window []byte, off int64) *Reader {
	nr := *r
	nr.f, nr.cache = nil, nil
	nr.window, nr.windowOff = window, off
	return &nr
}

// Close closes the underlying file, if the Reader has one.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// NewIter returns a two-level iterator over the whole table.
func (r *Reader) NewIter() iterator.Iterator {
	return &tableIter{r: r}
}

// tableIter is the classic two-level iterator: a position in the
// decoded index selecting data blocks, and a data iterator within the
// current block. The data iterator is a value re-pointed by init, so
// stepping into the next block allocates nothing.
//
// A forward scan reads ahead (DESIGN §19). When Next steps into a
// block the cache misses and the block before it also came from the
// file, the iterator reads that block and the contiguous data blocks
// after it with one ReadAt into a pooled buffer it owns: 16 KiB the
// first time, doubling on each refill up to 256 KiB. Every block is
// still probed in the cache first; a miss the buffer holds is served
// from it, in any direction, as a CRC-checked sub-slice, and admitted
// to the cache as a copy only if that evicts nothing. Seeks, backward
// steps and window or image readers never read ahead. Key and Value
// are valid until the next move; Close hands the buffer back to the
// pool.
type tableIter struct {
	r        *Reader
	idx      int       // index entry of the loaded block; out of range: none
	data     blockIter // invalid when no block is loaded
	fromFile bool      // the loaded block was read from the file, not the cache
	ra       readahead
	err      error
}

// loadData opens the data block at the current index position,
// reporting whether one is loaded (false at either end of the index or
// on error, with data left invalid). step reports a forward step by
// Next, the one move that may read ahead.
func (t *tableIter) loadData(step bool) bool {
	t.data.valid = false
	if t.idx < 0 || t.idx >= t.r.index.len() {
		return false
	}
	contents, err := t.block(step)
	if err != nil {
		t.err = err
		return false
	}
	if err := t.data.init(contents); err != nil {
		t.err = err
		return false
	}
	return true
}

// block returns the data block at the current index position: from
// the cache, from the read-ahead buffer (refilled first when step
// reads ahead), or, like a point read's, from the file and then cached.
func (t *tableIter) block(step bool) ([]byte, error) {
	r := t.r
	h := r.index.handles[t.idx]
	readAhead := step && t.fromFile && r.window == nil
	if !readAhead && !t.ra.holds(h) {
		contents, hit, err := r.getBlock(h)
		t.fromFile = !hit
		return contents, err
	}
	if r.cache != nil {
		if v, ok := r.cache.Get(r.fileNum, h.offset); ok {
			t.fromFile = false
			return v, nil
		}
	}
	t.fromFile = true
	if !t.ra.holds(h) {
		if err := t.ra.refill(r, t.idx); err != nil {
			return nil, err
		}
	}
	contents, err := t.ra.block(r, h)
	if err == nil && r.cache != nil {
		r.cache.Admit(r.fileNum, h.offset, contents)
	}
	return contents, err
}

// skipEmpty advances past exhausted data blocks; step is loadData's.
func (t *tableIter) skipEmpty(step bool) {
	for t.err == nil && !t.data.Valid() {
		if err := t.data.Error(); err != nil {
			t.err = err
			return
		}
		t.idx++
		if !t.loadData(step) {
			return
		}
		t.data.SeekToFirst()
	}
}

// skipEmptyBackward steps back across exhausted data blocks.
func (t *tableIter) skipEmptyBackward() {
	for t.err == nil && !t.data.Valid() {
		if err := t.data.Error(); err != nil {
			t.err = err
			return
		}
		t.idx--
		if !t.loadData(false) {
			return
		}
		t.data.SeekToLast()
	}
}

func (t *tableIter) Valid() bool {
	return t.err == nil && t.data.Valid()
}

func (t *tableIter) SeekGE(target []byte) {
	if t.err != nil {
		return
	}
	t.idx, _ = t.r.index.seekGE(target)
	if t.loadData(false) {
		t.data.SeekGE(target)
		t.skipEmpty(false)
	}
}

func (t *tableIter) SeekToFirst() {
	if t.err != nil {
		return
	}
	t.idx = 0
	if t.loadData(false) {
		t.data.SeekToFirst()
		t.skipEmpty(false)
	}
}

func (t *tableIter) Next() {
	if !t.Valid() {
		return
	}
	t.data.Next()
	t.skipEmpty(true)
}

func (t *tableIter) SeekToLast() {
	if t.err != nil {
		return
	}
	t.idx = t.r.index.len() - 1
	if t.loadData(false) {
		t.data.SeekToLast()
		t.skipEmptyBackward()
	}
}

func (t *tableIter) SeekLT(target []byte) {
	if t.err != nil {
		return
	}
	// The block that may contain entries < target is the one whose
	// separator is ≥ target (same block SeekGE would search), or the
	// last block when target is past everything.
	if t.idx, _ = t.r.index.seekGE(target); t.idx == t.r.index.len() {
		t.idx = t.r.index.len() - 1
	}
	if t.loadData(false) {
		t.data.SeekLT(target)
		t.skipEmptyBackward()
	}
}

func (t *tableIter) Prev() {
	if !t.Valid() {
		return
	}
	t.data.Prev()
	t.skipEmptyBackward()
}

func (t *tableIter) Key() []byte   { return t.data.Key() }
func (t *tableIter) Value() []byte { return t.data.Value() }
func (t *tableIter) Error() error  { return t.err }

// Close releases the iterator and hands its read-ahead buffer back to
// the pool (the table's file stays open; the Reader owns it).
func (t *tableIter) Close() error {
	t.ra.release()
	return t.err
}

var _ iterator.Iterator = (*tableIter)(nil)
