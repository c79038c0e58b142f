package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
)

const (
	valueSize = 1024
	// valueHeader is the (key id, version) prefix of every value; the
	// rest is a slice of the dataset's random pool.
	valueHeader = 8
	poolSize    = 1 << 20
	// streamLen is the length of each client's pregenerated op
	// stream; clients walk it cyclically.
	streamLen = 1 << 20
)

// dataset is everything a workload's inputs are made of, generated
// from the seed before any timed window: the key table, the random
// pool values are cut from, and the per-key version counters that let
// every read be checked against what the generator wrote.
type dataset struct {
	seed int64
	keys [][]byte
	pool []byte
	// issued[id] is the version of the newest Put handed to the store
	// for key id, done[id] the newest one acknowledged. Each key is
	// written by one client only, so its versions commit in order and a
	// Get must return a version in [done before the call, issued after].
	issued []atomic.Uint32
	done   []atomic.Uint32
}

func newDataset(seed int64, n int) *dataset {
	d := &dataset{
		seed:   seed,
		keys:   make([][]byte, n),
		pool:   make([]byte, poolSize+valueSize),
		issued: make([]atomic.Uint32, n),
		done:   make([]atomic.Uint32, n),
	}
	flat := make([]byte, 0, 16*n)
	for i := range d.keys {
		flat = fmt.Appendf(flat, "user%012d", i)
		d.keys[i] = flat[len(flat)-16:]
	}
	rand.New(rand.NewSource(seed)).Read(d.pool)
	return d
}

// resetVersions forgets every write, for a workload that starts each
// repetition on an empty store.
func (d *dataset) resetVersions() {
	for i := range d.issued {
		d.issued[i].Store(0)
		d.done[i].Store(0)
	}
}

func (d *dataset) poolOffset(id, ver uint32) int {
	x := (uint64(id)<<32 | uint64(ver)) ^ uint64(d.seed)
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int(x % poolSize)
}

// value writes version ver of key id's value into dst and returns it.
func (d *dataset) value(dst []byte, id, ver uint32) []byte {
	dst = dst[:valueSize]
	binary.LittleEndian.PutUint32(dst[0:], id)
	binary.LittleEndian.PutUint32(dst[4:], ver)
	off := d.poolOffset(id, ver)
	copy(dst[valueHeader:], d.pool[off:off+valueSize-valueHeader])
	return dst
}

// nextValue issues the next version of key id and returns its bytes;
// the caller acknowledges it with d.done[id].Store(ver) once the Put
// has returned.
func (d *dataset) nextValue(dst []byte, id uint32) (val []byte, ver uint32) {
	ver = d.issued[id].Add(1)
	return d.value(dst, id, ver), ver
}

// check reports whether v is a value the generator made for key id
// with a version in [lo, hi].
func (d *dataset) check(id uint32, v []byte, lo, hi uint32) bool {
	if len(v) != valueSize || binary.LittleEndian.Uint32(v[0:]) != id {
		return false
	}
	ver := binary.LittleEndian.Uint32(v[4:])
	if ver < lo || ver > hi {
		return false
	}
	off := d.poolOffset(id, ver)
	return string(v[valueHeader:]) == string(d.pool[off:off+valueSize-valueHeader])
}

// opStream returns client c of n's key-id stream for a workload: ids
// drawn uniformly from [lo, hi) and, when own is set, only ids
// congruent to c mod n, so that no two writers share a key.
func opStream(seed int64, workload string, c, n int, lo, hi uint32, own bool) []uint32 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, workload, c)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	s := make([]uint32, streamLen)
	span := hi - lo
	for i := range s {
		id := lo + uint32(rng.Int63n(int64(span)))
		if own {
			id = id - id%uint32(n) + uint32(c)
			if id >= hi {
				id -= uint32(n)
			}
		}
		s[i] = id
	}
	return s
}

// streamHash fingerprints op streams, for the same-seed-same-inputs test.
func streamHash(streams ...[]uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, s := range streams {
		for _, id := range s {
			binary.LittleEndian.PutUint32(b[:], id)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
