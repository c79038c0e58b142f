package manifest

import (
	"encoding/binary"
	"fmt"
)

// Edit is one atomic change to the DB metadata, appended to the
// MANIFEST. Nil pointer fields are "unchanged".
type Edit struct {
	// LogNum records the WAL file whose contents are fully reflected
	// in the tree (older logs are obsolete after this edit).
	LogNum *uint64
	// NextFileNum advances the file-number allocator.
	NextFileNum *uint64
	// LastSeq records the newest durable sequence number.
	LastSeq *uint64
	// Added and Deleted list SST changes.
	Added   []AddedFile
	Deleted []DeletedFile
	// Quarantined marks files in which corruption was detected; the
	// mark survives manifest replay so repair can resume after reopen.
	Quarantined []QuarantinedFile
}

// AddedFile places Meta at Level.
type AddedFile struct {
	Level int
	Meta  *FileMeta
}

// DeletedFile removes file Num from Level.
type DeletedFile struct {
	Level int
	Num   uint64
}

// QuarantinedFile marks file Num at Level as damaged.
type QuarantinedFile struct {
	Level int
	Num   uint64
}

// Field tags of the MANIFEST record encoding. Tag 4, an added file
// without a whole-file checksum, is retired: the decoder rejects it as
// an unknown tag, so every live file has a recorded checksum.
const (
	tagLogNum            = 1
	tagNextFileNum       = 2
	tagLastSeq           = 3
	tagDeletedFile       = 5
	tagAddedFileChecksum = 6 // added file with its whole-file CRC-32C
	tagQuarantinedFile   = 7
)

// Encode serializes the edit as a MANIFEST record payload.
func (e *Edit) Encode() []byte {
	var b []byte
	put := func(tag int, v uint64) {
		b = binary.AppendUvarint(b, uint64(tag))
		b = binary.AppendUvarint(b, v)
	}
	if e.LogNum != nil {
		put(tagLogNum, *e.LogNum)
	}
	if e.NextFileNum != nil {
		put(tagNextFileNum, *e.NextFileNum)
	}
	if e.LastSeq != nil {
		put(tagLastSeq, *e.LastSeq)
	}
	for _, a := range e.Added {
		b = binary.AppendUvarint(b, tagAddedFileChecksum)
		b = binary.AppendUvarint(b, uint64(a.Level))
		b = binary.AppendUvarint(b, a.Meta.Num)
		b = binary.AppendUvarint(b, uint64(a.Meta.Size))
		b = binary.AppendUvarint(b, uint64(a.Meta.Checksum))
		b = appendBytes(b, a.Meta.Smallest)
		b = appendBytes(b, a.Meta.Largest)
	}
	for _, d := range e.Deleted {
		b = binary.AppendUvarint(b, tagDeletedFile)
		b = binary.AppendUvarint(b, uint64(d.Level))
		b = binary.AppendUvarint(b, d.Num)
	}
	for _, q := range e.Quarantined {
		b = binary.AppendUvarint(b, tagQuarantinedFile)
		b = binary.AppendUvarint(b, uint64(q.Level))
		b = binary.AppendUvarint(b, q.Num)
	}
	return b
}

// DecodeEdit parses a MANIFEST record payload.
func DecodeEdit(p []byte) (*Edit, error) {
	e := &Edit{}
	d := decoder{p: p}
	for !d.done() {
		tag := d.uvarint()
		switch tag {
		case tagLogNum:
			v := d.uvarint()
			e.LogNum = &v
		case tagNextFileNum:
			v := d.uvarint()
			e.NextFileNum = &v
		case tagLastSeq:
			v := d.uvarint()
			e.LastSeq = &v
		case tagAddedFileChecksum:
			level := int(d.uvarint())
			meta := &FileMeta{
				Num:      d.uvarint(),
				Size:     int64(d.uvarint()),
				Checksum: uint32(d.uvarint()),
			}
			meta.Smallest = d.bytes()
			meta.Largest = d.bytes()
			if level < 0 || level >= NumLevels {
				return nil, fmt.Errorf("manifest: added file at invalid level %d", level)
			}
			e.Added = append(e.Added, AddedFile{Level: level, Meta: meta})
		case tagQuarantinedFile:
			level := int(d.uvarint())
			num := d.uvarint()
			if level < 0 || level >= NumLevels {
				return nil, fmt.Errorf("manifest: quarantined file at invalid level %d", level)
			}
			e.Quarantined = append(e.Quarantined, QuarantinedFile{Level: level, Num: num})
		case tagDeletedFile:
			level := int(d.uvarint())
			num := d.uvarint()
			if level < 0 || level >= NumLevels {
				return nil, fmt.Errorf("manifest: deleted file at invalid level %d", level)
			}
			e.Deleted = append(e.Deleted, DeletedFile{Level: level, Num: num})
		default:
			return nil, fmt.Errorf("manifest: unknown edit tag %d", tag)
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	return e, nil
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

type decoder struct {
	p   []byte
	err error
}

func (d *decoder) done() bool { return len(d.p) == 0 || d.err != nil }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.err = fmt.Errorf("manifest: truncated varint")
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.p)) < n {
		d.err = fmt.Errorf("manifest: truncated bytes field")
		return nil
	}
	out := make([]byte, n)
	copy(out, d.p[:n])
	d.p = d.p[n:]
	return out
}
