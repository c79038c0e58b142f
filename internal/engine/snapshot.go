package engine

import (
	"sort"

	"xpointdb/internal/iterator"
)

// Snapshot pins a point-in-time view of the database: reads through it
// see exactly the writes committed before NewSnapshot returned.
// Compaction retains the newest version of every key at each live
// snapshot boundary, so snapshot reads stay correct while background
// work proceeds. Release it when done — db.Close reports forgotten
// snapshots as leaks.
type Snapshot struct {
	db  *DB
	seq uint64
}

// NewSnapshot captures the current visible state. It never touches
// db.mu: registration takes only snapsMu, so snapshot acquisition does
// not contend with the write queue or background installs.
//
// Correctness against a racing compaction pick hinges on two
// orderings. First, visibleSeq is loaded INSIDE snapsMu. Second, a
// pick reads the version BEFORE it reads the snapshot list (which
// locks snapsMu). So if a pick's read of the list misses this
// registration, this critical section ran after the pick's — meaning
// the sequence below was loaded after the pick read its version, and
// is therefore ≥ every sequence in that compaction's input files
// (file contents were visible before the version existed). Such a
// snapshot sees all the compaction's entries, and the newest version
// of each key — which the merge always keeps — is exactly what it
// needs. Snapshots the pick did observe get their stripe boundaries.
func (db *DB) NewSnapshot() *Snapshot {
	db.snapsMu.Lock()
	s := &Snapshot{db: db, seq: db.visibleSeq.Load()}
	db.snapshots[s] = s.seq
	db.snapsMu.Unlock()
	return s
}

// Seq exposes the snapshot's sequence number (for tests/tools).
func (s *Snapshot) Seq() uint64 { return s.seq }

// Release unpins the snapshot. Safe to call more than once.
func (s *Snapshot) Release() {
	s.db.snapsMu.Lock()
	delete(s.db.snapshots, s)
	s.db.snapsMu.Unlock()
}

// Get reads key as of the snapshot. The SuperVersion pinned inside
// getAt may be newer than the snapshot — that is fine: newer bundles
// hold a superset of the data, and sequence filtering hides everything
// committed after s.seq. It is timed, counted and traced exactly like
// a live Get.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	return s.db.timedGet(key, s.seq, nil)
}

// NewIter returns an iterator over the snapshot's view.
func (s *Snapshot) NewIter() (iterator.Iterator, error) {
	return s.db.newIterAt(s.seq)
}

// liveSnapshotSeqs returns the live snapshot sequence numbers in
// ascending order. Takes snapsMu; callers may hold db.mu (lock order
// db.mu → snapsMu) but do not need to.
func (db *DB) liveSnapshotSeqs() []uint64 {
	db.snapsMu.Lock()
	defer db.snapsMu.Unlock()
	if len(db.snapshots) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(db.snapshots))
	for _, seq := range db.snapshots {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stripeOf returns the index of the version stripe seq falls into,
// given ascending snapshot boundaries: stripe i covers
// (snaps[i-1], snaps[i]], with a final stripe above the last boundary.
// Compaction may collapse versions within one stripe but must keep the
// newest version in each occupied stripe (see runCompaction).
func stripeOf(snaps []uint64, seq uint64) int {
	return sort.Search(len(snaps), func(i int) bool { return snaps[i] >= seq })
}
