// Package manifest maintains the LSM tree's file-level metadata: which
// SSTs exist at which level, their key ranges, and the MANIFEST log
// that makes this metadata durable. It mirrors the LevelDB/RocksDB
// design: every metadata change is a VersionEdit appended to the
// MANIFEST (which reuses the WAL record format); applying an edit to
// the current Version yields the next immutable Version; recovery
// replays the MANIFEST from scratch.
package manifest

import (
	"fmt"
	"sort"
	"sync/atomic"

	"xpointdb/internal/keys"
)

// NumLevels is the number of levels in the tree (L0..L6), matching
// RocksDB's default num_levels = 7.
const NumLevels = 7

// FileMeta describes one SST file.
type FileMeta struct {
	// Num is the file number (NNNNNN.sst).
	Num uint64
	// Size is the file size in bytes.
	Size int64
	// Smallest and Largest are the bounding internal keys.
	Smallest []byte
	Largest  []byte
	// Checksum is the CRC-32C of the file's full byte stream, computed
	// by the SST writer and persisted through the version edit.
	Checksum uint32

	// quarantined marks a file in which corruption was detected; the
	// mark is persisted as its own edit record so it survives reopen,
	// and clears only when repair replaces (or drops) the file. It is
	// diagnostic state, not layout state: a quarantined file still
	// serves its intact blocks until repair completes.
	quarantined atomic.Bool

	// refs counts the versions currently holding this file. It is
	// owned by the version lifecycle: each version installed by a Set
	// adds one reference per file it contains, and releasing the last
	// reference to a version drops them. When a file's count reaches
	// zero it can no longer be reached by any reader and is reported
	// to the Set's zombie list for deletion.
	refs atomic.Int32
}

// Refs returns the number of versions referencing the file
// (tests/diagnostics).
func (f *FileMeta) Refs() int32 { return f.refs.Load() }

// Quarantined reports whether corruption has been detected in this file.
func (f *FileMeta) Quarantined() bool { return f.quarantined.Load() }

// MarkQuarantined flags the file as damaged. FileMetas are shared across
// versions, so the mark is visible to every version holding the file —
// the damage is a property of the file, not of one layout.
func (f *FileMeta) MarkQuarantined() { f.quarantined.Store(true) }

// ContainsUserKey reports whether the file's key range may contain
// userKey.
func (f *FileMeta) ContainsUserKey(userKey []byte) bool {
	return keys.CompareUserKeys(userKey, keys.UserKey(f.Smallest)) >= 0 &&
		keys.CompareUserKeys(userKey, keys.UserKey(f.Largest)) <= 0
}

// Version is an immutable snapshot of the file layout. Files[0] holds
// the Level-0 files ordered oldest→newest (ascending file number);
// levels 1+ are ordered by smallest key with disjoint ranges.
//
// Versions installed by a Set are refcounted: the Set itself holds one
// reference for the current version, and readers (the engine's
// SuperVersions, in-flight compactions) take additional references via
// Ref/Unref. A version's files cannot be deleted while any reference
// to a version containing them is live; when the last reference drops,
// files that no newer version carries are reported to the Set's zombie
// list, which is the sole trigger for SST deletion.
type Version struct {
	Files [NumLevels][]*FileMeta

	// refs counts live references (Set's current pointer + readers).
	refs atomic.Int32
	// set is the owning Set, for zombie reporting on release; nil for
	// free-standing versions built by tests, which are never
	// refcounted.
	set *Set
}

// Ref adds a reference to v. Callers must already hold a reference
// (or the Set's serialization) — Ref never resurrects a released
// version.
func (v *Version) Ref() { v.refs.Add(1) }

// Unref drops one reference; releasing the last one drops the file
// references this version holds and reports newly-unreferenced files
// as zombies. Safe to call from any goroutine.
func (v *Version) Unref() {
	n := v.refs.Add(-1)
	if n == 0 {
		v.release()
	} else if n < 0 {
		panic("manifest: Version refcount below zero")
	}
}

// Refs returns the live reference count (tests/diagnostics).
func (v *Version) Refs() int32 { return v.refs.Load() }

// release drops this version's file references. Files whose count
// reaches zero are unreachable by every current and pinned version and
// become zombies.
func (v *Version) release() {
	for l := range v.Files {
		for _, f := range v.Files[l] {
			n := f.refs.Add(-1)
			if n == 0 {
				if v.set != nil {
					v.set.noteZombie(f.Num)
				}
			} else if n < 0 {
				panic("manifest: FileMeta refcount below zero")
			}
		}
	}
}

// File locates file num, returning its level and metadata, or
// (-1, nil) when no level holds it.
func (v *Version) File(num uint64) (int, *FileMeta) {
	for l := range v.Files {
		for _, f := range v.Files[l] {
			if f.Num == num {
				return l, f
			}
		}
	}
	return -1, nil
}

// NumFiles returns the file count at level.
func (v *Version) NumFiles(level int) int { return len(v.Files[level]) }

// LevelBytes returns the total file bytes at level.
func (v *Version) LevelBytes(level int) int64 {
	var n int64
	for _, f := range v.Files[level] {
		n += f.Size
	}
	return n
}

// TotalFiles returns the file count across all levels.
func (v *Version) TotalFiles() int {
	n := 0
	for l := range v.Files {
		n += len(v.Files[l])
	}
	return n
}

// Overlaps returns the files at level whose user-key range intersects
// [smallest, largest]. For L0 every overlapping file is returned; for
// deeper levels the files are contiguous.
func (v *Version) Overlaps(level int, smallest, largest []byte) []*FileMeta {
	var out []*FileMeta
	for _, f := range v.Files[level] {
		if keys.CompareUserKeys(keys.UserKey(f.Largest), smallest) < 0 {
			continue
		}
		if largest != nil && keys.CompareUserKeys(keys.UserKey(f.Smallest), largest) > 0 {
			if level == 0 {
				continue
			}
			break
		}
		out = append(out, f)
	}
	return out
}

// FileForKey returns the single file at a sorted level (≥1) that may
// contain userKey, or nil. cmps counts binary-search comparisons for
// the CPU cost model.
func (v *Version) FileForKey(level int, userKey []byte) (f *FileMeta, cmps int) {
	files := v.Files[level]
	lo, hi := 0, len(files)
	for lo < hi {
		mid := (lo + hi) / 2
		cmps++
		if keys.CompareUserKeys(keys.UserKey(files[mid].Largest), userKey) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(files) {
		return nil, cmps
	}
	if keys.CompareUserKeys(userKey, keys.UserKey(files[lo].Smallest)) < 0 {
		return nil, cmps
	}
	return files[lo], cmps
}

// clone returns a mutable deep-ish copy (FileMeta values are shared;
// they are immutable once created).
func (v *Version) clone() *Version {
	nv := &Version{}
	for l := range v.Files {
		nv.Files[l] = append([]*FileMeta(nil), v.Files[l]...)
	}
	return nv
}

// Apply returns a new Version with edit applied.
func (v *Version) Apply(edit *Edit) (*Version, error) {
	nv := v.clone()
	for _, d := range edit.Deleted {
		files := nv.Files[d.Level]
		idx := -1
		for i, f := range files {
			if f.Num == d.Num {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("manifest: delete of absent file %d at L%d", d.Num, d.Level)
		}
		nv.Files[d.Level] = append(append([]*FileMeta(nil), files[:idx]...), files[idx+1:]...)
	}
	for _, a := range edit.Added {
		nv.Files[a.Level] = append(append([]*FileMeta(nil), nv.Files[a.Level]...), a.Meta)
	}
	for _, q := range edit.Quarantined {
		// Tolerate a mark for a file no longer at the level: a replayed
		// manifest may quarantine a file a later edit already removed.
		for _, f := range nv.Files[q.Level] {
			if f.Num == q.Num {
				f.MarkQuarantined()
				break
			}
		}
	}
	for l := range nv.Files {
		sortLevel(l, nv.Files[l])
	}
	if err := nv.checkInvariants(); err != nil {
		return nil, err
	}
	return nv, nil
}

func sortLevel(level int, files []*FileMeta) {
	if level == 0 {
		sort.Slice(files, func(i, j int) bool { return files[i].Num < files[j].Num })
		return
	}
	sort.Slice(files, func(i, j int) bool {
		return keys.Compare(files[i].Smallest, files[j].Smallest) < 0
	})
}

// checkInvariants verifies sorted levels have disjoint, ordered ranges.
func (v *Version) checkInvariants() error {
	for l := 1; l < NumLevels; l++ {
		files := v.Files[l]
		for i := 1; i < len(files); i++ {
			prev, cur := files[i-1], files[i]
			if keys.CompareUserKeys(keys.UserKey(prev.Largest), keys.UserKey(cur.Smallest)) >= 0 {
				return fmt.Errorf("manifest: L%d files %d and %d overlap: %s ≥ %s",
					l, prev.Num, cur.Num, keys.String(prev.Largest), keys.String(cur.Smallest))
			}
		}
	}
	return nil
}

// DebugString renders the layout for logs and tests.
func (v *Version) DebugString() string {
	s := ""
	for l := 0; l < NumLevels; l++ {
		if len(v.Files[l]) == 0 {
			continue
		}
		s += fmt.Sprintf("L%d:", l)
		for _, f := range v.Files[l] {
			s += fmt.Sprintf(" %d(%dB)", f.Num, f.Size)
		}
		s += "\n"
	}
	return s
}
