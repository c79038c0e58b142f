package manifest

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

// This file holds the package's readers of the on-disk metadata, the
// only code that parses CURRENT or a MANIFEST. None of them creates,
// renames or removes a file, so they are safe against a directory an
// open engine owns.

// State is the metadata a MANIFEST records: the version its edits
// build and the allocator fields. Load returns one on its own, with
// nothing to write through; a Set embeds the one it keeps live.
type State struct {
	current     *Version
	manifestNum uint64

	// NextFileNum is the next unallocated file number.
	NextFileNum uint64
	// LastSeq is the newest sequence number recorded durably.
	LastSeq uint64
	// LogNum is the WAL file number currently in use.
	LogNum uint64
}

// Current returns the live version.
func (st *State) Current() *Version { return st.current }

// ManifestNum returns the file number of the MANIFEST the state was
// read from or, in a Set, of the live one (for the obsolete-file
// sweep: any other manifest file is garbage).
func (st *State) ManifestNum() uint64 { return st.manifestNum }

// advance moves the allocator fields forward to edit's values; an
// edit never moves them back.
func (st *State) advance(edit *Edit) {
	if edit.NextFileNum != nil && *edit.NextFileNum > st.NextFileNum {
		st.NextFileNum = *edit.NextFileNum
	}
	if edit.LastSeq != nil && *edit.LastSeq > st.LastSeq {
		st.LastSeq = *edit.LastSeq
	}
	if edit.LogNum != nil && *edit.LogNum > st.LogNum {
		st.LogNum = *edit.LogNum
	}
}

// ReadCurrent returns the name of the MANIFEST that CURRENT points at.
func ReadCurrent(fs vfs.FS) (string, error) {
	cf, err := fs.Open(CurrentName)
	if err != nil {
		return "", fmt.Errorf("manifest: open CURRENT: %w", err)
	}
	defer cf.Close()
	buf := make([]byte, 64)
	n, err := cf.ReadAt(buf, 0)
	if n == 0 && err != nil && !errors.Is(err, io.EOF) {
		return "", fmt.Errorf("manifest: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(buf[:n]))
	if typ, _ := ParseName(name); typ != TypeManifest {
		return "", fmt.Errorf("manifest: CURRENT names %q, not a manifest", name)
	}
	return name, nil
}

// Replay decodes the edits of MANIFEST name and calls fn with each, in
// order. A torn tail ends the replay at the last good edit
// (wal.Replay); an edit that does not decode, or an error from fn,
// stops it with that error.
func Replay(fs vfs.FS, name string, fn func(*Edit) error) error {
	f, err := fs.Open(name)
	if err != nil {
		return fmt.Errorf("manifest: open %s: %w", name, err)
	}
	defer f.Close()
	if _, err := wal.Replay(f, func(rec []byte) error {
		edit, err := DecodeEdit(rec)
		if err != nil {
			return err
		}
		return fn(edit)
	}); err != nil {
		return fmt.Errorf("manifest: replay %s: %w", name, err)
	}
	return nil
}

// Load reads the live state of a database directory: the MANIFEST
// that CURRENT names, replayed edit by edit. It only reads.
func Load(fs vfs.FS) (*State, error) {
	name, err := ReadCurrent(fs)
	if err != nil {
		return nil, err
	}
	_, num := ParseName(name)
	st := &State{current: &Version{}, manifestNum: num, NextFileNum: 1}
	if err := Replay(fs, name, func(edit *Edit) error {
		nv, err := st.current.Apply(edit)
		if err != nil {
			return err
		}
		st.current = nv
		st.advance(edit)
		return nil
	}); err != nil {
		return nil, err
	}
	return st, nil
}
