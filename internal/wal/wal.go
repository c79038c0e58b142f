// Package wal implements the write-ahead log in the LevelDB/RocksDB
// record format: the log is a sequence of 32 KiB blocks, each holding
// physical records of the form
//
//	checksum uint32 (CRC-32C of type+payload, LE)
//	length   uint16 (LE)
//	type     byte   (full=1, first=2, middle=3, last=4)
//	payload  [length]byte
//
// A logical record (one encoded write batch) may be split across
// blocks as first/middle.../last fragments. Blocks with fewer than 7
// trailing bytes are zero-padded.
//
// The paper's Finding #4 and case study C revolve around this log:
// every committed write pays a WAL append + sync before it is
// acknowledged, and moving that cost to a faster device (or dropping
// it) is what Figures 17 and 20 measure.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"xpointdb/internal/vfs"
)

// BlockSize is the physical block size of the log.
const BlockSize = 32 * 1024

const headerSize = 7 // checksum(4) + length(2) + type(1)

const (
	fullType   = 1
	firstType  = 2
	middleType = 3
	lastType   = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned by Reader when a record fails its checksum or
// framing checks. Replay treats it as the end of the usable log.
var ErrCorrupt = errors.New("wal: corrupt record")

// Writer appends logical records to a log file. It is not safe for
// concurrent use; the engine serializes access at the write-queue head.
type Writer struct {
	f           vfs.File
	blockOffset int // offset within the current block
	buf         []byte

	// Sync accounting for the event stream and stats reporter:
	// appended counts every byte written (payload + framing + padding),
	// synced the bytes made durable by completed Syncs.
	appended int64
	synced   int64
	syncs    int64
}

// NewWriter returns a Writer appending to f, which must be empty or
// positioned at a block boundary (a fresh log file).
func NewWriter(f vfs.File) *Writer {
	return &Writer{f: f}
}

// AddRecord appends one logical record. The data is buffered in the
// file layer; call Sync to persist.
func (w *Writer) AddRecord(payload []byte) error {
	begin := true
	for {
		leftover := BlockSize - w.blockOffset
		if leftover < headerSize {
			// Pad the rest of the block with zeros.
			if leftover > 0 {
				if _, err := w.f.Write(zeros[:leftover]); err != nil {
					return fmt.Errorf("wal: pad block: %w", err)
				}
				w.appended += int64(leftover)
			}
			w.blockOffset = 0
			leftover = BlockSize
		}
		avail := leftover - headerSize
		frag := payload
		if len(frag) > avail {
			frag = frag[:avail]
		}
		end := len(frag) == len(payload)

		var t byte
		switch {
		case begin && end:
			t = fullType
		case begin:
			t = firstType
		case end:
			t = lastType
		default:
			t = middleType
		}
		if err := w.emit(t, frag); err != nil {
			return err
		}
		payload = payload[len(frag):]
		begin = false
		if end {
			return nil
		}
	}
}

var zeros [headerSize]byte

func (w *Writer) emit(t byte, payload []byte) error {
	w.buf = w.buf[:0]
	var hdr [headerSize]byte
	crc := crc32.Update(0, castagnoli, []byte{t})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(len(payload)))
	hdr[6] = t
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	w.blockOffset += headerSize + len(payload)
	w.appended += int64(headerSize + len(payload))
	return nil
}

// Sync persists all appended records to the device.
func (w *Writer) Sync() error {
	err := w.f.Sync()
	if err == nil {
		w.synced = w.appended
		w.syncs++
	}
	return err
}

// Appended returns the total bytes written to the log (including
// framing and padding).
func (w *Writer) Appended() int64 { return w.appended }

// Pending returns the bytes appended since the last successful Sync —
// what the next Sync will make durable.
func (w *Writer) Pending() int64 { return w.appended - w.synced }

// Syncs returns the number of completed Syncs.
func (w *Writer) Syncs() int64 { return w.syncs }

// Reader reads logical records back from a log file.
type Reader struct {
	f      vfs.File
	off    int64
	block  [BlockSize]byte
	blockN int // valid bytes in block
	blockI int // read cursor within block
	eof    bool
}

// NewReader returns a Reader over f from the beginning.
func NewReader(f vfs.File) *Reader {
	return &Reader{f: f}
}

// Offset returns the file offset up to which blocks have been
// consumed. After reading to EOF it equals the file size, which lets a
// caller pad the file to a block boundary before appending with a
// fresh Writer.
func (r *Reader) Offset() int64 { return r.off }

// ReadRecord returns the next logical record. It returns io.EOF at the
// clean end of the log and ErrCorrupt if a record fails validation
// (typically a torn tail write).
func (r *Reader) ReadRecord() ([]byte, error) {
	var record []byte
	inFragmented := false
	for {
		t, payload, err := r.readPhysical()
		if err != nil {
			if err == io.EOF && inFragmented {
				// Log ended mid-record: torn tail.
				return nil, ErrCorrupt
			}
			return nil, err
		}
		switch t {
		case fullType:
			if inFragmented {
				return nil, ErrCorrupt
			}
			return payload, nil
		case firstType:
			if inFragmented {
				return nil, ErrCorrupt
			}
			record = append(record[:0], payload...)
			inFragmented = true
		case middleType:
			if !inFragmented {
				return nil, ErrCorrupt
			}
			record = append(record, payload...)
		case lastType:
			if !inFragmented {
				return nil, ErrCorrupt
			}
			return append(record, payload...), nil
		default:
			return nil, ErrCorrupt
		}
	}
}

// Replay calls fn with each logical record of the log in f, in order.
// This is the one end-of-log rule: the clean end of the log ends the
// replay with torn false; a record that fails validation (a torn tail
// write, or corruption past the last synced record) ends it with torn
// true and no error, because only fully synced records are promised. A
// read error, or an error from fn, stops the replay and is returned.
// The record passed to fn is the caller's to keep.
func Replay(f vfs.File, fn func(rec []byte) error) (torn bool, err error) {
	r := NewReader(f)
	for {
		rec, err := r.ReadRecord()
		switch {
		case errors.Is(err, io.EOF):
			return false, nil
		case errors.Is(err, ErrCorrupt):
			return true, nil
		case err != nil:
			return false, err
		}
		if err := fn(rec); err != nil {
			return false, err
		}
	}
}

func (r *Reader) readPhysical() (byte, []byte, error) {
	for {
		if r.blockN-r.blockI < headerSize {
			// Rest of block is padding (or block exhausted): load next.
			if r.eof {
				return 0, nil, io.EOF
			}
			n, err := r.f.ReadAt(r.block[:], r.off)
			if n == 0 {
				if err != nil && !errors.Is(err, io.EOF) {
					return 0, nil, fmt.Errorf("wal: read: %w", err)
				}
				return 0, nil, io.EOF
			}
			r.off += int64(n)
			r.blockN, r.blockI = n, 0
			if errors.Is(err, io.EOF) || n < BlockSize {
				r.eof = true
			}
		}
		hdr := r.block[r.blockI : r.blockI+headerSize]
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		t := hdr[6]
		if t == 0 && length == 0 {
			// Zero padding: skip to next block.
			r.blockI = r.blockN
			continue
		}
		if r.blockI+headerSize+length > r.blockN {
			return 0, nil, ErrCorrupt
		}
		payload := r.block[r.blockI+headerSize : r.blockI+headerSize+length]
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		crc := crc32.Update(0, castagnoli, []byte{t})
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != wantCRC {
			return 0, nil, ErrCorrupt
		}
		r.blockI += headerSize + length
		out := make([]byte, length)
		copy(out, payload)
		return t, out, nil
	}
}
