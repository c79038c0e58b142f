// Package keys defines the internal key encoding shared by the
// memtable, WAL, SSTs and iterators.
//
// An internal key is the user key followed by an 8-byte little-endian
// trailer packing a 56-bit sequence number and an 8-bit kind:
//
//	| user key ... | (seq << 8) | kind, 8 bytes LE |
//
// Internal keys order by user key ascending, then by sequence number
// descending (newer first), then by kind descending. This matches the
// LevelDB/RocksDB internal comparator and is what lets a scan see the
// newest visible version of each user key first.
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind discriminates what an entry represents.
type Kind uint8

const (
	// KindDelete is a tombstone.
	KindDelete Kind = 0
	// KindSet is a key/value insertion.
	KindSet Kind = 1
)

// MaxSeq is the largest representable sequence number.
const MaxSeq = uint64(1)<<56 - 1

// TrailerLen is the length of the internal key trailer.
const TrailerLen = 8

// Make builds an internal key from its parts.
func Make(userKey []byte, seq uint64, kind Kind) []byte {
	ik := make([]byte, 0, len(userKey)+TrailerLen)
	ik = append(ik, userKey...)
	return AppendTrailer(ik, seq, kind)
}

// AppendTrailer appends the (seq, kind) trailer to dst.
func AppendTrailer(dst []byte, seq uint64, kind Kind) []byte {
	return binary.LittleEndian.AppendUint64(dst, seq<<8|uint64(kind))
}

// UserKey returns the user-key portion of an internal key.
func UserKey(ik []byte) []byte {
	return ik[:len(ik)-TrailerLen]
}

// Trailer returns the sequence number and kind of an internal key.
func Trailer(ik []byte) (seq uint64, kind Kind) {
	t := binary.LittleEndian.Uint64(ik[len(ik)-TrailerLen:])
	return t >> 8, Kind(t & 0xff)
}

// Valid reports whether ik is long enough to be an internal key.
func Valid(ik []byte) bool { return len(ik) >= TrailerLen }

// Compare orders two internal keys: user key ascending, then trailer
// (seq<<8|kind) descending.
func Compare(a, b []byte) int {
	ua, ub := UserKey(a), UserKey(b)
	if c := bytes.Compare(ua, ub); c != 0 {
		return c
	}
	ta := binary.LittleEndian.Uint64(a[len(a)-TrailerLen:])
	tb := binary.LittleEndian.Uint64(b[len(b)-TrailerLen:])
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	}
	return 0
}

// CompareUserKeys orders two user keys (plain byte order).
func CompareUserKeys(a, b []byte) int { return bytes.Compare(a, b) }

// SearchKey returns the internal key that sorts before every entry for
// userKey with sequence ≤ seq — i.e. the seek target that finds the
// newest visible version.
func SearchKey(userKey []byte, seq uint64) []byte {
	return AppendSearchKey(make([]byte, 0, len(userKey)+TrailerLen), userKey, seq)
}

// AppendSearchKey appends SearchKey(userKey, seq) to dst. A lookup
// passes a stack buffer as dst, so building its seek target allocates
// nothing.
func AppendSearchKey(dst, userKey []byte, seq uint64) []byte {
	return AppendTrailer(append(dst, userKey...), seq, Kind(0xff))
}

// String formats an internal key for debugging.
func String(ik []byte) string {
	if !Valid(ik) {
		return fmt.Sprintf("invalid(%q)", ik)
	}
	seq, kind := Trailer(ik)
	k := "SET"
	if kind == KindDelete {
		k = "DEL"
	}
	return fmt.Sprintf("%q#%d,%s", UserKey(ik), seq, k)
}
