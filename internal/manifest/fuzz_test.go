package manifest

import (
	"bytes"
	"testing"
)

// editsEquivalent compares the decoder-visible fields of two edits.
// Byte-level comparison would be wrong: out-of-range varints normalize
// on the uint32/int64 truncation the decoder applies.
func editsEquivalent(a, b *Edit) bool {
	u64eq := func(x, y *uint64) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		return x == nil || *x == *y
	}
	if !u64eq(a.LogNum, b.LogNum) || !u64eq(a.NextFileNum, b.NextFileNum) || !u64eq(a.LastSeq, b.LastSeq) {
		return false
	}
	if len(a.Added) != len(b.Added) || len(a.Deleted) != len(b.Deleted) ||
		len(a.Quarantined) != len(b.Quarantined) {
		return false
	}
	for i := range a.Added {
		x, y := a.Added[i], b.Added[i]
		if x.Level != y.Level || x.Meta.Num != y.Meta.Num || x.Meta.Size != y.Meta.Size ||
			x.Meta.Checksum != y.Meta.Checksum ||
			!bytes.Equal(x.Meta.Smallest, y.Meta.Smallest) ||
			!bytes.Equal(x.Meta.Largest, y.Meta.Largest) {
			return false
		}
	}
	for i := range a.Deleted {
		if a.Deleted[i] != b.Deleted[i] {
			return false
		}
	}
	for i := range a.Quarantined {
		if a.Quarantined[i] != b.Quarantined[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeEdit feeds arbitrary bytes to the MANIFEST edit decoder:
// it must never panic or loop, and any payload it accepts must
// round-trip — re-encoding the decoded edit and decoding again yields
// a semantically identical edit. The committed corpus keeps a record
// of the retired tag-4 added file (legacy_tag4_added), which the
// decoder must now reject.
func FuzzDecodeEdit(f *testing.F) {
	ln, nf, ls := uint64(7), uint64(42), uint64(100000)
	full := &Edit{
		LogNum: &ln, NextFileNum: &nf, LastSeq: &ls,
		Added: []AddedFile{{Level: 1, Meta: &FileMeta{
			Num: 9, Size: 4096, Checksum: 0xdeadbeef,
			Smallest: []byte("aaa"), Largest: []byte("zzz"),
		}}},
		Deleted:     []DeletedFile{{Level: 2, Num: 5}},
		Quarantined: []QuarantinedFile{{Level: 3, Num: 6}},
	}
	f.Add(full.Encode())
	f.Add((&Edit{}).Encode())
	f.Add([]byte{tagLogNum}) // truncated varint payload
	f.Add([]byte("garbage that is not an edit"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEdit(data)
		if err != nil {
			return
		}
		enc := e.Encode()
		e2, err := DecodeEdit(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted edit failed: %v\ninput: %x\nre-encoded: %x", err, data, enc)
		}
		if !editsEquivalent(e, e2) {
			t.Fatalf("edit round-trip diverged\ninput: %x\nfirst: %+v\nsecond: %+v", data, e, e2)
		}
	})
}
