// Package bloom implements the Bloom filter attached to each SST. The
// filter is what keeps Level-0 read amplification bearable: a negative
// probe lets the read path skip a table without touching the device.
// The implementation follows LevelDB's: k probes derived from one
// 32-bit hash by double hashing (delta rotation).
package bloom

import "encoding/binary"

// Filter is an immutable encoded Bloom filter: bit array followed by a
// trailing byte holding the probe count.
type Filter []byte

// New builds a filter over the given keys with bitsPerKey bits per key
// (10 is the customary default, ~1% false-positive rate).
func New(bloomKeys [][]byte, bitsPerKey int) Filter {
	hashes := make([]uint32, len(bloomKeys))
	for i, key := range bloomKeys {
		hashes[i] = Hash(key)
	}
	return FromHashes(hashes, bitsPerKey)
}

// FromHashes builds the filter New would build over keys whose Hash
// values are hashes, one per key and in the same order: a builder that
// keeps one uint32 per key need not keep the keys.
func FromHashes(hashes []uint32, bitsPerKey int) Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	// k = bitsPerKey * ln2, clamped like LevelDB.
	k := uint8(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	bits := len(hashes) * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nbytes := (bits + 7) / 8
	bits = nbytes * 8
	buf := make([]byte, nbytes+1)
	buf[nbytes] = k

	for _, h := range hashes {
		delta := h>>17 | h<<15
		for i := uint8(0); i < k; i++ {
			pos := h % uint32(bits)
			buf[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return Filter(buf)
}

// MayContain reports whether key was possibly added to the filter. A
// false return is definitive.
func (f Filter) MayContain(key []byte) bool {
	return f.MayContainHash(Hash(key))
}

// MayContainHash is MayContain for a key whose Hash is h, so a lookup
// that probes several filters hashes its key once.
func (f Filter) MayContainHash(h uint32) bool {
	if len(f) < 2 {
		return false
	}
	k := f[len(f)-1]
	if k > 30 {
		// Reserved encoding: treat as "may contain".
		return true
	}
	bits := uint32((len(f) - 1) * 8)
	delta := h>>17 | h<<15
	for i := uint8(0); i < k; i++ {
		pos := h % bits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Hash is the 32-bit hash used for filter probes (LevelDB's
// Murmur-inspired hash).
func Hash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	for len(data) >= 4 {
		h += binary.LittleEndian.Uint32(data)
		h *= m
		h ^= h >> 16
		data = data[4:]
	}
	switch len(data) {
	case 3:
		h += uint32(data[2]) << 16
		fallthrough
	case 2:
		h += uint32(data[1]) << 8
		fallthrough
	case 1:
		h += uint32(data[0])
		h *= m
		h ^= h >> 24
	}
	return h
}
