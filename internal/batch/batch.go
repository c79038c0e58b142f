// Package batch implements WriteBatch, the atomic multi-operation
// write unit. Its wire encoding — an 8-byte base sequence number, a
// 4-byte count, then one record per operation — follows the
// LevelDB/RocksDB layout and doubles as the WAL payload, so a batch is
// appended to the log verbatim and replayed on recovery.
package batch

import (
	"encoding/binary"
	"fmt"

	"xpointdb/internal/keys"
)

// headerLen is the fixed prefix: 8-byte sequence + 4-byte count.
const headerLen = 12

// Batch is a sequence of Put/Delete operations applied atomically. The
// zero value is an empty, usable batch.
//
// Ownership: the store does not copy a batch it commits — the memtable
// keeps slices into the batch's buffer — so from the moment the write
// path sequences a batch (SetSequence) the bytes of its operations
// belong to the store and nothing overwrites them. The Batch value
// stays the caller's: Reset gives a committed batch a fresh buffer
// instead of clearing the old one in place, so Put, Apply, Reset, Put,
// Apply is safe and what the first Apply wrote stays what it was. A
// batch that was never committed resets in place. The key and value
// slices handed to Put and Delete are copied on the way in and remain
// the caller's throughout.
type Batch struct {
	rep []byte
	// retained is set once the store may hold slices into rep.
	retained bool
}

func (b *Batch) ensureHeader() {
	if len(b.rep) == 0 {
		b.rep = make([]byte, headerLen, headerLen+64)
	}
}

// Put queues a key/value insertion.
func (b *Batch) Put(key, value []byte) {
	b.ensureHeader()
	b.setCount(b.Count() + 1)
	b.rep = append(b.rep, byte(keys.KindSet))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.rep = binary.AppendUvarint(b.rep, uint64(len(value)))
	b.rep = append(b.rep, value...)
}

// Delete queues a tombstone for key.
func (b *Batch) Delete(key []byte) {
	b.ensureHeader()
	b.setCount(b.Count() + 1)
	b.rep = append(b.rep, byte(keys.KindDelete))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
}

// Count returns the number of queued operations.
func (b *Batch) Count() uint32 {
	if len(b.rep) < headerLen {
		return 0
	}
	return binary.LittleEndian.Uint32(b.rep[8:12])
}

func (b *Batch) setCount(n uint32) {
	binary.LittleEndian.PutUint32(b.rep[8:12], n)
}

// Sequence returns the base sequence number assigned to the batch.
func (b *Batch) Sequence() uint64 {
	if len(b.rep) < headerLen {
		return 0
	}
	return binary.LittleEndian.Uint64(b.rep[:8])
}

// SetSequence assigns the base sequence number. The write path does so
// when it commits the batch, which is the point the store takes over
// the buffer (see Batch).
func (b *Batch) SetSequence(seq uint64) {
	b.ensureHeader()
	binary.LittleEndian.PutUint64(b.rep[:8], seq)
	b.retained = true
}

// Empty reports whether no operations are queued.
func (b *Batch) Empty() bool { return b.Count() == 0 }

// Size returns the encoded size in bytes.
func (b *Batch) Size() int {
	if len(b.rep) < headerLen {
		return headerLen
	}
	return len(b.rep)
}

// Reset clears the batch for reuse. A committed batch's buffer belongs
// to the store (see Batch): it is left as it is and the batch starts a
// fresh one of the same capacity.
func (b *Batch) Reset() {
	if b.retained {
		b.rep, b.retained = make([]byte, headerLen, cap(b.rep)), false
		return
	}
	if len(b.rep) >= headerLen {
		b.rep = b.rep[:headerLen]
		for i := range b.rep {
			b.rep[i] = 0
		}
	}
}

// Repr returns the wire encoding. The returned slice aliases the
// batch's buffer.
func (b *Batch) Repr() []byte {
	b.ensureHeader()
	return b.rep
}

// FromRepr wraps an encoded representation (e.g. a WAL payload) as a
// Batch. The slice is retained.
func FromRepr(rep []byte) (*Batch, error) {
	if len(rep) < headerLen {
		return nil, fmt.Errorf("batch: representation too short (%d bytes)", len(rep))
	}
	b := &Batch{rep: rep}
	// Validate by walking all records.
	n := 0
	err := b.Iterate(func(kind keys.Kind, key, value []byte) error {
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if uint32(n) != b.Count() {
		return nil, fmt.Errorf("batch: header count %d != %d records present", b.Count(), n)
	}
	return b, nil
}

// Append concatenates other's operations onto b (used by the write
// path's batch-group leader to merge a group into one WAL record).
func (b *Batch) Append(other *Batch) {
	b.ensureHeader()
	b.setCount(b.Count() + other.Count())
	if len(other.rep) > headerLen {
		b.rep = append(b.rep, other.rep[headerLen:]...)
	}
}

// Iterate calls fn for each operation in order. For KindDelete records
// value is nil.
func (b *Batch) Iterate(fn func(kind keys.Kind, key, value []byte) error) error {
	if len(b.rep) < headerLen {
		return nil
	}
	p := b.rep[headerLen:]
	for len(p) > 0 {
		kind := keys.Kind(p[0])
		p = p[1:]
		key, rest, err := getLengthPrefixed(p)
		if err != nil {
			return fmt.Errorf("batch: bad key: %w", err)
		}
		p = rest
		var value []byte
		switch kind {
		case keys.KindSet:
			value, rest, err = getLengthPrefixed(p)
			if err != nil {
				return fmt.Errorf("batch: bad value: %w", err)
			}
			p = rest
		case keys.KindDelete:
			// no value
		default:
			return fmt.Errorf("batch: unknown record kind %d", kind)
		}
		if err := fn(kind, key, value); err != nil {
			return err
		}
	}
	return nil
}

func getLengthPrefixed(p []byte) (data, rest []byte, err error) {
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, nil, fmt.Errorf("invalid varint")
	}
	p = p[w:]
	if uint64(len(p)) < n {
		return nil, nil, fmt.Errorf("truncated payload: want %d have %d", n, len(p))
	}
	return p[:n], p[n:], nil
}
