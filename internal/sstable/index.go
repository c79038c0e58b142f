package sstable

import (
	"fmt"

	"xpointdb/internal/keys"
)

// index is a table's index block decoded once, when the table is
// opened: every separator key written out in full, end to end, each
// data block's handle, and the entry number of each restart point.
// Lookups, table iterators and DataWindow search it in place, so no
// probe decodes a varint or rebuilds a prefix-compressed key.
//
// seekGE keeps blockIter.SeekGE's algorithm — a binary search over
// the restart points, then a linear scan from the chosen one — and so
// makes exactly its comparisons: ProbeStats.Cmps is charged in
// virtual time, and a search that compared less would change every
// simulated read.
type index struct {
	keyBuf   []byte   // separator keys end to end
	keyOff   []uint32 // key i is keyBuf[keyOff[i]:keyOff[i+1]]
	handles  []blockHandle
	restarts []uint32 // entry number of each restart point, ascending
}

// len returns the number of entries (data blocks).
func (x *index) len() int { return len(x.handles) }

// key returns separator i.
func (x *index) key(i int) []byte { return x.keyBuf[x.keyOff[i]:x.keyOff[i+1]] }

// seekGE returns the first entry whose separator is ≥ target (len()
// when there is none) and the key comparisons it took.
func (x *index) seekGE(target []byte) (i, cmps int) {
	if len(x.restarts) == 0 {
		return 0, 0
	}
	lo, hi := 0, len(x.restarts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		cmps++
		if keys.Compare(x.key(int(x.restarts[mid])), target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	for i = int(x.restarts[lo]); i < x.len(); i++ {
		cmps++
		if keys.Compare(x.key(i), target) >= 0 {
			return i, cmps
		}
	}
	return i, cmps
}

// decodeIndex decodes index block contents (trailer stripped). Both
// passes walk the block with a blockIter, which rejects an entry that
// does not decode, shares more key bytes than its predecessor has, or
// holds no internal key. Beyond that the first entry and every restart
// point must be at an entry start, in order, with none past the last
// entry, and every value must be a block handle. A fault is an error
// here rather than a wrong answer at lookup time.
func decodeIndex(contents []byte) (index, error) {
	var it blockIter
	if err := it.init(contents); err != nil {
		return index{}, err
	}
	nr := it.numRestarts()
	if len(it.data) == 0 {
		// An empty table's index: no entries, one restart at 0.
		if nr != 1 || it.restart(0) != 0 {
			return index{}, fmt.Errorf("empty block with restarts past its end")
		}
		return index{}, nil
	}

	// Pass 1 checks the entries and restart points and counts entries
	// and key bytes, so pass 2 fills arrays of exactly the right size;
	// pass 2 decodes the handles.
	n, keyBytes, r := 0, 0, 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if r < nr && it.restart(r) == it.off {
			r++
		} else if it.off == 0 {
			return index{}, fmt.Errorf("first entry is not a restart point")
		} else if r < nr && it.restart(r) < it.off {
			return index{}, fmt.Errorf("restart point %d at offset %d is not an entry start", r, it.restart(r))
		}
		keyBytes += len(it.key)
		n++
	}
	if err := it.Error(); err != nil {
		return index{}, err
	}
	if r < nr {
		return index{}, fmt.Errorf("restart point %d at offset %d is past the last entry", r, it.restart(r))
	}

	x := index{
		keyBuf:   make([]byte, 0, keyBytes),
		keyOff:   make([]uint32, n+1),
		handles:  make([]blockHandle, n),
		restarts: make([]uint32, 0, nr),
	}
	r, i := 0, 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if r < nr && it.restart(r) == it.off {
			x.restarts = append(x.restarts, uint32(i))
			r++
		}
		x.keyBuf = append(x.keyBuf, it.key...)
		x.keyOff[i+1] = uint32(len(x.keyBuf))
		h, _, err := decodeHandle(it.val)
		if err != nil {
			return index{}, fmt.Errorf("entry at offset %d: %v", it.off, err)
		}
		x.handles[i] = h
		i++
	}
	return x, nil
}
