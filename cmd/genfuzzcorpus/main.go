// Command genfuzzcorpus regenerates the committed fuzz seed corpora
// under internal/*/testdata/fuzz/. The corpora give `go test -fuzz`
// structurally valid starting points (real WAL logs, SST images,
// batch reprs) plus known-nasty near-valid mutants, so the fuzzers
// reach deep decoder states immediately instead of re-discovering the
// formats. Seeds of retired formats (valid_flate, legacy_tag4_added)
// are no longer generated; their committed files stay as regression
// seeds the decoders must reject. Run from the repo root:
//
//	go run ./cmd/genfuzzcorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"

	"xpointdb/internal/batch"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
	"xpointdb/internal/wal"
)

// memFile is an in-memory vfs.File for building corpus inputs.
type memFile struct {
	buf []byte
}

func (f *memFile) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// writeCorpus writes one seed file in "go test fuzz v1" format; each
// value must already be rendered as a Go literal line.
func writeCorpus(dir, name string, values ...string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString("go test fuzz v1\n")
	for _, v := range values {
		b.WriteString(v)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}

func lit(data []byte) string { return fmt.Sprintf("[]byte(%q)", data) }

func walLog(payloads ...[]byte) []byte {
	f := &memFile{}
	w := wal.NewWriter(f)
	for _, p := range payloads {
		if err := w.AddRecord(p); err != nil {
			log.Fatal(err)
		}
	}
	return f.buf
}

func sstTable(opts sstable.BuilderOptions, n int) []byte {
	f := &memFile{}
	b := sstable.NewBuilder(f, opts)
	for i := 0; i < n; i++ {
		k := keys.Make([]byte(fmt.Sprintf("key%04d", i)), uint64(i+1), keys.KindSet)
		if err := b.Add(k, bytes.Repeat([]byte{byte('a' + i%26)}, 20)); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		log.Fatal(err)
	}
	return f.buf
}

// restartMidEntry returns table with its index block's second restart
// point moved one byte into the entry it names, and the block's CRC
// recomputed: a structurally malformed index that passes its checksum,
// which the reader must refuse at open. The table's index must hold
// more than 16 entries, so that there is a second restart point.
func restartMidEntry(table []byte) []byte {
	t := append([]byte(nil), table...)
	footer := t[len(t)-48:]
	off, n := binary.Uvarint(footer[20:]) // the index block's handle
	length, _ := binary.Uvarint(footer[20+n:])
	index := t[off : off+length]
	restarts := int(binary.LittleEndian.Uint32(index[len(index)-4:]))
	if restarts < 2 {
		log.Fatalf("index has %d restart points, need 2", restarts)
	}
	second := index[len(index)-4-4*restarts+4:]
	binary.LittleEndian.PutUint32(second, binary.LittleEndian.Uint32(second)+1)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Update(0, castagnoli, index) // then the codec byte
	crc = crc32.Update(crc, castagnoli, t[off+length:off+length+1])
	binary.LittleEndian.PutUint32(t[off+length+1:], crc)
	return t
}

func main() {
	// WAL record decoding.
	dir := "internal/wal/testdata/fuzz/FuzzReadRecord"
	small := walLog([]byte("alpha"), []byte("beta"), []byte(""))
	big := walLog(bytes.Repeat([]byte("spanning"), 3*wal.BlockSize/8))
	writeCorpus(dir, "valid_small", lit(small))
	writeCorpus(dir, "valid_fragmented", lit(big))
	writeCorpus(dir, "torn_tail", lit(big[:len(big)-wal.BlockSize/2]))
	flipped := append([]byte(nil), small...)
	flipped[len(flipped)-2] ^= 0x40
	writeCorpus(dir, "bitflip_tail", lit(flipped))

	dir = "internal/wal/testdata/fuzz/FuzzWriterReaderRoundTrip"
	writeCorpus(dir, "block_boundary",
		lit(bytes.Repeat([]byte("z"), wal.BlockSize-7)), "byte('\\x02')")
	writeCorpus(dir, "empty_payload", lit(nil), "byte('\\x07')")

	// SST block and table parsing.
	dir = "internal/sstable/testdata/fuzz/FuzzTableReader"
	plain := sstTable(sstable.BuilderOptions{BlockSize: 256, BloomBitsPerKey: 10}, 64)
	writeCorpus(dir, "valid_plain", lit(plain))
	trunc := append([]byte(nil), plain[:len(plain)/2]...)
	trunc = append(trunc, plain[len(plain)-48:]...) // body cut, footer kept
	writeCorpus(dir, "truncated_body", lit(trunc))
	handles := append([]byte(nil), plain...)
	for i := 0; i < 8; i++ {
		handles[len(handles)-48+i] = 0xff // garbage filter handle, magic intact
	}
	writeCorpus(dir, "bad_handles", lit(handles))
	writeCorpus(dir, "index_restart_mid_entry", lit(restartMidEntry(
		sstTable(sstable.BuilderOptions{BlockSize: 64}, 64))))

	dir = "internal/sstable/testdata/fuzz/FuzzBlockIter"
	// A raw block image: decode one out of a table by hand — the first
	// data block of a one-block table starts at offset 0 and its length
	// sits in the index, but for corpus purposes an independently built
	// entry stream with a restart array is enough.
	var blk []byte
	var restarts []uint32
	prev := []byte{}
	for i := 0; i < 40; i++ {
		k := keys.Make([]byte(fmt.Sprintf("key%04d", i)), uint64(i+1), keys.KindSet)
		shared := 0
		if i%16 != 0 {
			for shared < len(prev) && shared < len(k) && prev[shared] == k[shared] {
				shared++
			}
		} else {
			restarts = append(restarts, uint32(len(blk)))
		}
		v := []byte("val")
		blk = binary.AppendUvarint(blk, uint64(shared))
		blk = binary.AppendUvarint(blk, uint64(len(k)-shared))
		blk = binary.AppendUvarint(blk, uint64(len(v)))
		blk = append(blk, k[shared:]...)
		blk = append(blk, v...)
		prev = k
	}
	for _, r := range restarts {
		blk = binary.LittleEndian.AppendUint32(blk, r)
	}
	blk = binary.LittleEndian.AppendUint32(blk, uint32(len(restarts)))
	writeCorpus(dir, "valid_block", lit(blk))
	overflow := append([]byte(nil), blk...)
	overflow[0] = 0xff // huge varint prefix on the first entry
	writeCorpus(dir, "varint_overflow", lit(overflow))

	// MANIFEST version-edit records.
	dir = "internal/manifest/testdata/fuzz/FuzzDecodeEdit"
	ln, nf, ls := uint64(7), uint64(42), uint64(1<<40)
	full := &manifest.Edit{
		LogNum: &ln, NextFileNum: &nf, LastSeq: &ls,
		Added: []manifest.AddedFile{{Level: 1, Meta: &manifest.FileMeta{
			Num: 9, Size: 4096, Checksum: 0xdeadbeef,
			Smallest: []byte("aaa"), Largest: []byte("zzz"),
		}}},
		Deleted:     []manifest.DeletedFile{{Level: 2, Num: 5}},
		Quarantined: []manifest.QuarantinedFile{{Level: 3, Num: 6}},
	}
	enc := full.Encode()
	writeCorpus(dir, "valid_full", lit(enc))
	writeCorpus(dir, "truncated_varint", lit(enc[:len(enc)-2]))
	badLevel := append([]byte(nil), enc...)
	writeCorpus(dir, "bit_damage", lit(append(badLevel[:1], badLevel[2:]...)))
	writeCorpus(dir, "unknown_tag", lit([]byte{0xf0, 0x01, 0x02}))

	// Batch wire format.
	dir = "internal/batch/testdata/fuzz/FuzzFromRepr"
	var b batch.Batch
	b.Put([]byte("user0001"), bytes.Repeat([]byte("v"), 100))
	b.Delete([]byte("user0002"))
	b.Put([]byte(""), []byte(""))
	b.SetSequence(777)
	rep := b.Repr()
	writeCorpus(dir, "valid_mixed", lit(rep))
	short := append([]byte(nil), rep...)
	writeCorpus(dir, "count_mismatch", lit(short[:len(short)-3]))

	fmt.Println("fuzz corpora regenerated")
}
