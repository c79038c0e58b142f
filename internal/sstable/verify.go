package sstable

import (
	"fmt"
	"hash/crc32"
)

// verifyChunkLen bounds the per-ReadAt transfer of the whole-file
// checksum pass, so pacing callbacks see steady progress instead of one
// file-sized read.
const verifyChunkLen = 64 << 10

// VerifyStats reports what one verification pass covered.
type VerifyStats struct {
	// Blocks is the number of blocks whose CRC was re-checked (data
	// blocks plus the filter and index blocks).
	Blocks int
	// Bytes is the total bytes read from the file, across both the
	// whole-file checksum stream and the per-block re-reads.
	Bytes int64
}

// Verify re-reads the entire table from the underlying file, bypassing
// the block cache. It recomputes the whole-file CRC-32C (compared
// against fileChecksum when fileChecksum != 0 — zero means no recorded
// digest, as when xpdump verifies a file the live MANIFEST does not
// name) and then re-checks every block: footer decode, filter, index,
// and each data block the index references.
//
// pace, if non-nil, is called after every read with the byte count just
// transferred; returning an error aborts the pass with that error. The
// scrubber uses it to enforce its byte/s budget and to bail out when
// the DB is closing.
func (r *Reader) Verify(fileChecksum uint32, pace func(n int) error) (VerifyStats, error) {
	var st VerifyStats
	step := func(n int) error {
		st.Bytes += int64(n)
		if pace == nil {
			return nil
		}
		return pace(n)
	}

	// Pass 1: whole-file checksum, streamed in bounded chunks. This
	// covers every byte, including footer padding and block trailers
	// that the per-block pass below re-covers.
	var crc uint32
	buf := make([]byte, verifyChunkLen)
	for off := int64(0); off < r.size; {
		n := int64(len(buf))
		if r.size-off < n {
			n = r.size - off
		}
		if _, err := r.f.ReadAt(buf[:n], off); err != nil {
			return st, fmt.Errorf("sstable: verify read of %d at %d: %w", r.fileNum, off, err)
		}
		crc = crc32.Update(crc, crcTable, buf[:n])
		off += n
		if err := step(int(n)); err != nil {
			return st, err
		}
	}
	if fileChecksum != 0 && crc != fileChecksum {
		return st, &CorruptionError{
			FileNum: r.fileNum,
			Detail:  fmt.Sprintf("file checksum mismatch (computed %#x, manifest records %#x)", crc, fileChecksum),
		}
	}

	// Pass 2: per-block CRCs. The footer and metadata blocks are
	// re-read from the file rather than trusting the copies decoded at
	// open time — the media may have rotted since.
	filterHandle, indexHandle, err := readFooter(r.f, r.size, r.fileNum)
	if err != nil {
		return st, err
	}
	if err := step(footerLen); err != nil {
		return st, err
	}
	checkBlock := func(h blockHandle) ([]byte, error) {
		contents, err := r.readBlock(h)
		if err != nil {
			return nil, err
		}
		st.Blocks++
		if err := step(int(h.length) + blockTrailerLen); err != nil {
			return nil, err
		}
		return contents, nil
	}
	if filterHandle.length > 0 {
		if _, err := checkBlock(filterHandle); err != nil {
			return st, err
		}
	}
	raw, err := checkBlock(indexHandle)
	if err != nil {
		return st, err
	}
	idx, err := r.decodeIndexBlock(raw, indexHandle)
	if err != nil {
		return st, err
	}
	for _, h := range idx.handles {
		if _, err := checkBlock(h); err != nil {
			return st, err
		}
	}
	return st, nil
}
