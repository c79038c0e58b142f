package manifest

import (
	"fmt"
	"sync"

	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

// Set owns the current Version and the MANIFEST log. Manifest state
// (current version, allocator fields, the log) is not concurrency-safe
// by itself; the engine serializes access under its own mutex. The
// version/file reference counts and the zombie list are the exception:
// they are safe for concurrent use, because readers drop version
// references from arbitrary goroutines.
type Set struct {
	State

	fs vfs.FS

	manifestFile vfs.File
	manifestLog  *wal.Writer

	// zombieMu guards zombies. A file number is appended exactly once,
	// by the release of the last version referencing it.
	zombieMu sync.Mutex
	zombies  []uint64
}

// Create initializes a brand-new database directory: an empty version,
// MANIFEST-000001 holding its snapshot edit, and CURRENT.
func Create(fs vfs.FS) (*Set, error) {
	s := &Set{fs: fs, State: State{NextFileNum: 1}}
	s.installCurrent(&Version{})
	if err := s.rollManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Recover opens an existing database directory: it loads the state the
// MANIFEST named by CURRENT records (Load), then rolls to a fresh
// MANIFEST instead of appending past the old one's tail (RocksDB
// behavior). Appending after a torn tail is a correctness trap: replay
// stops at the first corruption, so edits written beyond it would be
// silently dropped by the next recovery. A fresh manifest with a full
// snapshot edit has no tail to trip over, and makes the old file
// garbage.
func Recover(fs vfs.FS) (*Set, error) {
	st, err := Load(fs)
	if err != nil {
		return nil, err
	}
	// The loaded version is not yet referenced; installCurrent takes
	// the Set's references on it and its files.
	s := &Set{fs: fs, State: *st}
	s.current = nil
	s.installCurrent(st.current)
	if err := s.rollManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// rollManifest creates a new MANIFEST holding one snapshot edit of the
// entire current state, points CURRENT at it, and removes the old file
// (a brand-new Set, numbered 0, has none). On failure the old manifest
// remains CURRENT and intact.
func (s *Set) rollManifest() error {
	oldNum := s.manifestNum
	// The replayed NextFileNum may predate the old manifest's own
	// number (it is allocated before the snapshot edit is written);
	// never hand out a number at or below it.
	if s.NextFileNum <= oldNum {
		s.NextFileNum = oldNum + 1
	}
	newNum := s.AllocFileNum()
	f, err := s.fs.Create(ManifestName(newNum))
	if err != nil {
		return fmt.Errorf("manifest: roll: %w", err)
	}
	w := wal.NewWriter(f)
	// The file lists are built in locals: appending to the edit's own
	// fields would move the allocator fields below to the heap.
	var added []AddedFile
	var quarantined []QuarantinedFile
	for l := 0; l < NumLevels; l++ {
		for _, fm := range s.current.Files[l] {
			added = append(added, AddedFile{Level: l, Meta: fm})
			if fm.Quarantined() {
				quarantined = append(quarantined, QuarantinedFile{Level: l, Num: fm.Num})
			}
		}
	}
	next, last, log := s.NextFileNum, s.LastSeq, s.LogNum
	edit := &Edit{NextFileNum: &next, LastSeq: &last, LogNum: &log, Added: added, Quarantined: quarantined}
	if err := w.AddRecord(edit.Encode()); err != nil {
		f.Close()
		return fmt.Errorf("manifest: roll snapshot: %w", err)
	}
	if err := w.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("manifest: roll sync: %w", err)
	}
	if err := s.setCurrent(newNum); err != nil {
		f.Close()
		return err
	}
	s.manifestNum = newNum
	s.manifestFile = f
	s.manifestLog = w
	if oldNum != 0 {
		// Best effort: the old manifest is unreferenced now; the
		// engine's obsolete-file sweep also catches it.
		_ = s.fs.Remove(ManifestName(oldNum))
	}
	return nil
}

// Roll switches to a fresh MANIFEST holding one snapshot edit of the
// entire current state and closes the superseded file's handle (the
// engine's error-recovery path uses this to abandon a manifest whose
// tail may hold a torn edit). On failure the old manifest remains
// CURRENT, open and intact, so the roll can be retried. Callers must
// serialize Roll against Append (the engine's manifestBusy flag).
func (s *Set) Roll() error {
	old := s.manifestFile
	if err := s.rollManifest(); err != nil {
		return err
	}
	if old != nil {
		// Best effort: the handle points at an already-unreferenced
		// file (possibly on a failing device).
		_ = old.Close()
	}
	return nil
}

// installCurrent makes nv the Set's current version. nv gains the
// Set's reference and one file reference per file BEFORE the previous
// current is unreferenced, so a file shared by both versions never
// transiently reaches zero references (a false zombie would delete a
// live SST).
func (s *Set) installCurrent(nv *Version) {
	nv.set = s
	for l := range nv.Files {
		for _, f := range nv.Files[l] {
			f.refs.Add(1)
		}
	}
	nv.Ref()
	old := s.current
	s.current = nv
	if old != nil {
		old.Unref()
	}
}

// noteZombie records that file num is no longer referenced by any
// version. Called by Version.release, possibly from a reader
// goroutine.
func (s *Set) noteZombie(num uint64) {
	s.zombieMu.Lock()
	s.zombies = append(s.zombies, num)
	s.zombieMu.Unlock()
}

// TakeZombies drains and returns the file numbers whose last version
// reference has dropped. Each number is returned exactly once; the
// caller owns their deletion.
func (s *Set) TakeZombies() []uint64 {
	s.zombieMu.Lock()
	z := s.zombies
	s.zombies = nil
	s.zombieMu.Unlock()
	return z
}

// LogAndApply durably appends edit to the MANIFEST and installs the
// resulting version as current. The edit is augmented with the current
// allocator state so that replay restores it.
//
// Concurrency note: the engine splits this into Prepare / Append /
// Install so that the manifest I/O happens outside the DB mutex
// (Prepare and Install are called under it; Append is serialized by
// the engine's manifestBusy flag).
func (s *Set) LogAndApply(edit *Edit) error {
	payload := s.Prepare(edit)
	if err := s.Append(payload); err != nil {
		return err
	}
	return s.Install(edit)
}

// Prepare augments edit with the allocator state and returns its
// encoded MANIFEST payload. Call under the engine mutex.
func (s *Set) Prepare(edit *Edit) []byte {
	next := s.NextFileNum
	if edit.NextFileNum == nil {
		edit.NextFileNum = &next
	}
	last := s.LastSeq
	if edit.LastSeq == nil {
		edit.LastSeq = &last
	}
	return edit.Encode()
}

// Append durably writes a prepared payload to the MANIFEST. Callers
// must serialize Append calls among themselves.
func (s *Set) Append(payload []byte) error {
	if err := s.manifestLog.AddRecord(payload); err != nil {
		return fmt.Errorf("manifest: append edit: %w", err)
	}
	if err := s.manifestLog.Sync(); err != nil {
		return fmt.Errorf("manifest: sync: %w", err)
	}
	return nil
}

// Install applies a previously appended edit's file changes and
// allocator fields to the in-memory state. Call under the engine mutex.
func (s *Set) Install(edit *Edit) error {
	nv, err := s.current.Apply(edit)
	if err != nil {
		return err
	}
	s.installCurrent(nv)
	s.advance(edit)
	return nil
}

// ManifestSize returns the live MANIFEST's size in bytes, framing
// included: every manifest starts as a fresh file, so it is what this
// Set appended. Serialize against Append and Roll like they are.
func (s *Set) ManifestSize() int64 { return s.manifestLog.Appended() }

// AllocFileNum returns a fresh file number.
func (s *Set) AllocFileNum() uint64 {
	n := s.NextFileNum
	s.NextFileNum++
	return n
}

// MarkSeq advances LastSeq (called by the write path after commit).
func (s *Set) MarkSeq(seq uint64) {
	if seq > s.LastSeq {
		s.LastSeq = seq
	}
}

// setCurrent atomically points CURRENT at manifest num.
func (s *Set) setCurrent(num uint64) error {
	tmp := "CURRENT.tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(ManifestName(num) + "\n")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.fs.Rename(tmp, CurrentName)
}

// Close releases the manifest file.
func (s *Set) Close() error {
	if s.manifestFile != nil {
		return s.manifestFile.Close()
	}
	return nil
}

// LiveFileNums returns the set of SST file numbers referenced by the
// current version. Runtime garbage collection is zombie-driven
// (TakeZombies); this remains for the open-time orphan sweep, which
// deletes directory leftovers from a crash before any reader exists.
func (s *Set) LiveFileNums() map[uint64]bool {
	live := make(map[uint64]bool)
	for l := 0; l < NumLevels; l++ {
		for _, f := range s.current.Files[l] {
			live[f.Num] = true
		}
	}
	return live
}
