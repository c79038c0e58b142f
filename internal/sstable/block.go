// Package sstable implements Sorted Sequence Table files: the on-disk
// format of the LSM tree. A table is a sequence of prefix-compressed
// data blocks followed by a Bloom filter block, an index block, and a
// fixed-size footer:
//
//	[data block 0][data block 1]...[filter block][index block][footer]
//
// Each block on disk is followed by a 5-byte trailer (compression type
// byte — always 0/none — and a CRC-32C). Within a block, entries are
// prefix-compressed with restart points every 16 entries, exactly as
// in LevelDB/RocksDB. The index block maps separator keys to data
// block handles. The Bloom filter covers the table's user keys.
package sstable

import (
	"encoding/binary"
	"fmt"

	"xpointdb/internal/keys"
)

// restartInterval is the number of entries between full (uncompressed)
// keys within a block.
const restartInterval = 16

// blockBuilder accumulates entries into one block.
type blockBuilder struct {
	buf      []byte
	restarts []uint32
	counter  int
	lastKey  []byte
}

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
}

// add appends an entry. Keys must be added in ascending order.
func (b *blockBuilder) add(key, value []byte) {
	shared := 0
	if b.counter < restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
}

// finish appends the restart array and returns the block contents.
func (b *blockBuilder) finish() []byte {
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

func (b *blockBuilder) empty() bool { return len(b.buf) == 0 }

// estimatedSize returns the current size of the block if finished now.
func (b *blockBuilder) estimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// blockIter iterates over one data block. It is a value: the table
// reader keeps its iterators on the stack or inside a tableIter, and
// init re-points one at another block, so opening a block allocates
// nothing. The restart array is read in place from the block bytes.
//
// A corrupt entry is recorded as its offset, not as an error value:
// escape analysis does not tell one field from another, so an error
// stored in the iterator and returned would, to the compiler, return
// the key buffer too and move a lookup's stack buffer to the heap.
// Error builds the error when asked.
type blockIter struct {
	data     []byte // entry region (restart array stripped)
	restarts []byte // restart array: little-endian uint32 entry offsets
	off      int    // offset of current entry within data
	nextOff  int
	key      []byte
	val      []byte
	valid    bool
	bad      bool // a corrupt entry was met, at badOff
	badOff   int
	// cmps counts key comparisons for the CPU cost model.
	cmps int
}

// init points the iterator at block contents (as produced by
// blockBuilder.finish, trailer already stripped), unpositioned. The key
// buffer is kept for reuse; everything else is reset.
func (it *blockIter) init(contents []byte) error {
	if len(contents) < 4 {
		return fmt.Errorf("sstable: block too short (%d bytes)", len(contents))
	}
	n := int(binary.LittleEndian.Uint32(contents[len(contents)-4:]))
	restartEnd := len(contents) - 4
	restartStart := restartEnd - 4*n
	if n <= 0 || restartStart < 0 {
		return fmt.Errorf("sstable: bad restart count %d", n)
	}
	// Field by field, not *it = blockIter{key: it.key[:0]}: reslicing
	// it.key in place is a self-assignment the escape analysis ignores,
	// so an iterator on a caller's stack stays there.
	it.data = contents[:restartStart]
	it.restarts = contents[restartStart:restartEnd]
	it.off, it.nextOff = 0, 0
	it.key = it.key[:0]
	it.val = nil
	it.valid = false
	it.bad = false
	it.cmps = 0
	return nil
}

// numRestarts returns the number of restart points (at least 1 after
// a successful init).
func (it *blockIter) numRestarts() int { return len(it.restarts) / 4 }

// restart returns the entry offset recorded by restart point i.
func (it *blockIter) restart(i int) int {
	return int(binary.LittleEndian.Uint32(it.restarts[4*i:]))
}

// decodeAt decodes the entry at off, building the full key from prev.
func (it *blockIter) decodeAt(off int) bool {
	if off < 0 {
		it.corrupt(off)
		return false
	}
	if off >= len(it.data) {
		it.valid = false
		return false
	}
	p := it.data[off:]
	shared, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		it.corrupt(off)
		return false
	}
	p = p[n1:]
	unshared, n2 := binary.Uvarint(p)
	if n2 <= 0 {
		it.corrupt(off)
		return false
	}
	p = p[n2:]
	vlen, n3 := binary.Uvarint(p)
	if n3 <= 0 {
		it.corrupt(off)
		return false
	}
	p = p[n3:]
	// Overflow-safe bounds checks: unshared+vlen can wrap uint64 on
	// hostile input, and each length must individually fit the
	// remaining data before any slicing or int conversion.
	if unshared > uint64(len(p)) || vlen > uint64(len(p))-unshared ||
		shared > uint64(len(it.key)) {
		it.corrupt(off)
		return false
	}
	// The key buffer grows by hand rather than by append: a
	// self-append would let the iterator's contents escape and force
	// every iterator onto the heap.
	n := int(shared) + int(unshared)
	if n > cap(it.key) {
		k := make([]byte, n, 2*n)
		copy(k, it.key[:shared])
		it.key = k
	}
	it.key = it.key[:n]
	copy(it.key[shared:], p[:unshared])
	if len(it.key) < keys.TrailerLen {
		// Data and index blocks hold internal keys only; anything
		// shorter would panic the key comparator downstream.
		it.corrupt(off)
		return false
	}
	valOff := off + n1 + n2 + n3 + int(unshared)
	it.val = it.data[valOff : valOff+int(vlen)]
	it.off = off
	it.nextOff = valOff + int(vlen)
	it.valid = true
	return true
}

func (it *blockIter) corrupt(off int) {
	it.bad, it.badOff = true, off
	it.valid = false
}

// Valid reports whether the iterator is positioned at an entry.
func (it *blockIter) Valid() bool { return it.valid && !it.bad }

// Key returns the current internal key.
func (it *blockIter) Key() []byte { return it.key }

// Value returns the current value.
func (it *blockIter) Value() []byte { return it.val }

// valueIn returns the current value cut from contents, the block init
// was given, by offset: the same bytes as Value, but to the compiler
// not derived from the iterator.
func (it *blockIter) valueIn(contents []byte) []byte {
	return contents[it.nextOff-len(it.val) : it.nextOff]
}

// Error returns any decoding error.
func (it *blockIter) Error() error {
	if !it.bad {
		return nil
	}
	return fmt.Errorf("sstable: corrupt block entry at offset %d", it.badOff)
}

// SeekToFirst positions at the first entry.
func (it *blockIter) SeekToFirst() {
	it.key = it.key[:0]
	it.decodeAt(0)
}

// Next advances to the next entry.
func (it *blockIter) Next() {
	if !it.valid {
		return
	}
	it.decodeAt(it.nextOff)
}

// SeekToLast positions at the last entry.
func (it *blockIter) SeekToLast() {
	if it.numRestarts() == 0 {
		it.valid = false
		return
	}
	it.key = it.key[:0]
	if !it.decodeAt(it.restart(it.numRestarts() - 1)) {
		return
	}
	for it.nextOff < len(it.data) {
		if !it.decodeAt(it.nextOff) {
			return
		}
	}
}

// SeekLT positions at the last entry with key < target.
func (it *blockIter) SeekLT(target []byte) {
	// Binary search restarts for the last one with key < target, then
	// scan forward keeping the last entry still below target.
	lo, hi := 0, it.numRestarts()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		it.key = it.key[:0]
		if !it.decodeAt(it.restart(mid)) {
			return
		}
		it.cmps++
		if keys.Compare(it.key, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.key = it.key[:0]
	if !it.decodeAt(it.restart(lo)) {
		return
	}
	it.cmps++
	if keys.Compare(it.key, target) >= 0 {
		// Even the first candidate is ≥ target: nothing before it.
		it.valid = false
		return
	}
	for it.nextOff < len(it.data) {
		if !it.decodeAt(it.nextOff) {
			return
		}
		it.cmps++
		if keys.Compare(it.key, target) >= 0 {
			// Step back to the entry ending where this one starts.
			cur := it.off
			it.key = it.key[:0]
			it.seekToRestartThenOffset(cur)
			return
		}
	}
}

// Prev moves to the previous entry (invalid at the first entry).
func (it *blockIter) Prev() {
	if !it.valid {
		return
	}
	if it.off == 0 {
		it.valid = false
		return
	}
	target := it.off
	it.key = it.key[:0]
	it.seekToRestartThenOffset(target)
}

// seekToRestartThenOffset positions at the entry that ENDS at target
// (i.e. whose nextOff == target) by decoding forward from the nearest
// restart at or before it. Callers must reset it.key first when the
// current key state does not correspond to the restart chain.
func (it *blockIter) seekToRestartThenOffset(target int) {
	// Find the last restart strictly before target (an entry at a
	// restart offset == target means the predecessor is in the
	// previous restart group... but restart offsets are entry
	// starts, so the predecessor of an entry AT a restart offset
	// still begins at or after the previous restart).
	lo, hi := 0, it.numRestarts()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if it.restart(mid) < target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if !it.decodeAt(it.restart(lo)) {
		return
	}
	for it.nextOff < target {
		if !it.decodeAt(it.nextOff) {
			return
		}
	}
	// Entries are contiguous, so the loop ends exactly at the entry
	// whose nextOff == target.
}

// SeekGE positions at the first entry with key ≥ target using a binary
// search over restart points followed by a linear scan.
func (it *blockIter) SeekGE(target []byte) {
	// Binary search restart points for the last one with key < target.
	lo, hi := 0, it.numRestarts()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		it.key = it.key[:0]
		if !it.decodeAt(it.restart(mid)) {
			return
		}
		it.cmps++
		if keys.Compare(it.key, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.key = it.key[:0]
	if !it.decodeAt(it.restart(lo)) {
		return
	}
	for it.valid {
		it.cmps++
		if keys.Compare(it.key, target) >= 0 {
			return
		}
		it.decodeAt(it.nextOff)
	}
}

// Cmps returns and resets the comparison counter.
func (it *blockIter) Cmps() int {
	c := it.cmps
	it.cmps = 0
	return c
}
