// Package vfs provides the filesystem abstraction the engine performs
// all I/O through.
//
// Two implementations exist:
//
//   - MemFS: an in-memory filesystem whose operations are charged to a
//     storage.Device model. This is the measurement substrate: data
//     lives in RAM but every read, write-back, and sync costs device
//     time. Reads always hit the device (the simulated setup assumes a
//     dataset much larger than page cache, as in the paper's 100 GB
//     data / 8 GB RAM configuration; caching is modeled explicitly by
//     the engine's block cache). MemFS can also simulate a crash that
//     loses unsynced data, which the recovery tests rely on.
//
//   - OS: a thin wrapper over package os rooted at a directory, so the
//     store runs as a real database on a real disk.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"xpointdb/internal/storage"
)

// FS is a flat-namespace filesystem.
type FS interface {
	// Create creates (truncating) a file open for appending.
	Create(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically renames a file, replacing any target.
	Rename(oldname, newname string) error
	// List returns the names of all files, sorted.
	List() ([]string, error)
	// Size returns the current size of a file.
	Size(name string) (int64, error)
}

// File is a handle supporting appending writes and positional reads.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync persists buffered writes to the device.
	Sync() error
}

// ErrNotExist is returned when a named file does not exist.
var ErrNotExist = os.ErrNotExist

// ErrNoSpace is the portable disk-full sentinel. Injected capacity
// faults (faultfs quota) wrap it, and the engine's error classifier
// treats it like syscall.ENOSPC, so tests exercise the same disk-full
// path a real device takes.
var ErrNoSpace = errors.New("vfs: no space left on device")

// ---------------------------------------------------------------------
// MemFS

// MemFS is an in-memory FS charged to a device model. The zero value is
// not usable; create one with NewMem.
type MemFS struct {
	dev *storage.Device

	mu    sync.Mutex
	files map[string]*memFile

	// freeMu guards freeChunks, the whole chunks of dropped files that
	// appends reuse before they allocate. It is taken last, inside
	// mu and a memFile's mu.
	freeMu     sync.Mutex
	freeChunks [][]byte
}

// syncChunk is the granularity at which a Sync's dirty bytes are issued
// to the device. Chunking lets reads interleave with a large flush
// instead of queueing behind one monolithic transfer.
const syncChunk = 1 << 20

// NewMem returns an empty MemFS whose I/O is charged to dev.
func NewMem(dev *storage.Device) *MemFS {
	return &MemFS{dev: dev, files: make(map[string]*memFile)}
}

// Device returns the device this filesystem charges.
func (fs *MemFS) Device() *storage.Device { return fs.dev }

// chunkSize is the unit a memFile's bytes are stored in. An append
// never moves bytes already written: it fills the tail chunk and starts
// another. Chosen once, from BenchmarkMemFSAppend (dearer per byte
// both below this and above it) against the slack a short tail chunk
// wastes and the `mixed` reader's p99; DESIGN §17 has the numbers.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
)

// maxFreeChunks bounds a MemFS's free list of chunks: at most this many
// (32 MiB) stay allocated for reuse after their files are dropped.
const maxFreeChunks = 512

// memFile stores a file as chunks that are never moved once written.
// tail is the chunk appends go to; *full lists the chunks before it,
// chunkSize bytes each, so byte off lives in chunk off>>chunkShift. A
// file that fits one chunk is tail alone, grown by append like any
// slice, and full stays nil — a pointer, so that the many small files
// (CURRENT, a MANIFEST) pay one word for it and no allocation. Every
// later chunk is allocated at full capacity, once, or taken from the
// free list of a file that was dropped.
//
// A file is dropped when it is unlinked (removed, or replaced by a
// Rename or a Create) and its last handle closes, whichever comes
// second; its whole chunks then go to the free list. handles and
// unlinked are guarded by fs.mu.
type memFile struct {
	fs   *MemFS
	name string

	mu     sync.RWMutex
	tail   []byte
	full   *[][]byte
	synced int // prefix of the file known to be on the device

	handles  int32 // open handles
	unlinked bool  // no name leads to the file any more
}

// size returns the file's length in bytes. Caller holds f.mu.
func (f *memFile) size() int {
	n := len(f.tail)
	if f.full != nil {
		n += len(*f.full) << chunkShift
	}
	return n
}

// chunk returns the i-th chunk. Caller holds f.mu.
func (f *memFile) chunk(i int) []byte {
	if f.full != nil && i < len(*f.full) {
		return (*f.full)[i]
	}
	return f.tail
}

// append adds p at the end of the file. Caller holds f.mu.
func (f *memFile) append(p []byte) {
	for len(p) > 0 {
		if len(f.tail) == chunkSize {
			if f.full == nil {
				f.full = new([][]byte)
			}
			*f.full = append(*f.full, f.tail)
			f.tail = f.fs.newChunk()
		}
		n := min(len(p), chunkSize-len(f.tail))
		f.tail = append(f.tail, p[:n]...)
		p = p[n:]
	}
}

// readAt copies the file's bytes from off on into p and returns how
// many there were: fewer than len(p) only at the end of the file. The
// caller holds f.mu and has checked 0 <= off <= f.size().
func (f *memFile) readAt(p []byte, off int) int {
	p = p[:min(len(p), f.size()-off)]
	for n := 0; n < len(p); {
		at := off + n
		n += copy(p[n:], f.chunk(at >> chunkShift)[at&(chunkSize-1):])
	}
	return len(p)
}

// newChunk returns an empty chunk of capacity chunkSize, reused when
// the free list has one.
func (fs *MemFS) newChunk() []byte {
	fs.freeMu.Lock()
	if n := len(fs.freeChunks); n > 0 {
		c := fs.freeChunks[n-1]
		fs.freeChunks[n-1] = nil
		fs.freeChunks = fs.freeChunks[:n-1]
		fs.freeMu.Unlock()
		return c[:0]
	}
	fs.freeMu.Unlock()
	return make([]byte, 0, chunkSize)
}

// unlinkLocked marks f as reachable by no name, and drops it if no
// handle is open. Caller holds fs.mu.
func (fs *MemFS) unlinkLocked(f *memFile) {
	f.unlinked = true
	if f.handles == 0 {
		fs.dropLocked(f)
	}
}

// dropLocked empties f, which no name and no open handle reaches any
// more, and puts its whole chunks on the free list. Emptying it under
// its lock means a call that found f by name just before it was
// unlinked (Size, CorruptBit) sees an empty file, never a chunk that
// another file now holds. Caller holds fs.mu.
func (fs *MemFS) dropLocked(f *memFile) {
	f.mu.Lock()
	var full [][]byte
	if f.full != nil {
		full = *f.full
	}
	tail := f.tail
	f.tail, f.full, f.synced = nil, nil, 0
	f.mu.Unlock()

	fs.freeMu.Lock()
	defer fs.freeMu.Unlock()
	for _, c := range full {
		fs.freeChunkLocked(c)
	}
	fs.freeChunkLocked(tail)
}

// freeChunkLocked puts c on the free list if it is a whole chunk and
// the list has room. Caller holds fs.freeMu.
func (fs *MemFS) freeChunkLocked(c []byte) {
	if cap(c) == chunkSize && len(fs.freeChunks) < maxFreeChunks {
		fs.freeChunks = append(fs.freeChunks, c)
	}
}

// Create creates or truncates name.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old, ok := fs.files[name]; ok {
		fs.unlinkLocked(old)
	}
	f := &memFile{fs: fs, name: name, handles: 1}
	fs.files[name] = f
	return &memHandle{f: f}, nil
}

// Open opens name for reading (writes through the handle are also
// permitted and append, matching the engine's reopen-for-append use of
// the WAL during recovery).
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("vfs: open %s: %w", name, ErrNotExist)
	}
	f.handles++
	return &memHandle{f: f}, nil
}

// Remove deletes name.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("vfs: remove %s: %w", name, ErrNotExist)
	}
	delete(fs.files, name)
	fs.unlinkLocked(f)
	return nil
}

// Rename renames oldname to newname.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("vfs: rename %s: %w", oldname, ErrNotExist)
	}
	if old, ok := fs.files[newname]; ok && old != f {
		fs.unlinkLocked(old)
	}
	delete(fs.files, oldname)
	f.name = newname
	fs.files[newname] = f
	return nil
}

// List returns all file names, sorted.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Size returns the size of name.
func (fs *MemFS) Size(name string) (int64, error) {
	fs.mu.Lock()
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("vfs: size %s: %w", name, ErrNotExist)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(f.size()), nil
}

// CrashClone returns a copy of the filesystem as it would look after a
// crash: every file is truncated to its last synced length. The device
// of the clone is the same device. Files never synced are empty.
func (fs *MemFS) CrashClone() *MemFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clone := NewMem(fs.dev)
	for name, f := range fs.files {
		c := &memFile{fs: clone, name: name}
		f.mu.RLock()
		for off := 0; off < f.synced; off += chunkSize {
			c.append(f.chunk(off >> chunkShift)[:min(chunkSize, f.synced-off)])
		}
		f.mu.RUnlock()
		c.synced = f.synced
		clone.files[name] = c
	}
	return clone
}

// CorruptBit flips one bit of name's stored data in place — silent
// media corruption, invisible to every open handle until the damaged
// byte is next read. A test hook for the integrity machinery (checksum
// verification, scrub, quarantine & repair); no device time is charged
// because nothing issued an I/O.
func (fs *MemFS) CorruptBit(name string, off int64) error {
	fs.mu.Lock()
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("vfs: corrupt %s: %w", name, ErrNotExist)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if size := f.size(); off < 0 || off >= int64(size) {
		return fmt.Errorf("vfs: corrupt %s at %d beyond size %d", name, off, size)
	}
	f.chunk(int(off >> chunkShift))[off&(chunkSize-1)] ^= 1
	return nil
}

// TotalBytes reports the summed size of all files (for tests and space
// accounting).
func (fs *MemFS) TotalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.files {
		f.mu.RLock()
		n += int64(f.size())
		f.mu.RUnlock()
	}
	return n
}

// memHandle is an open handle onto a memFile.
type memHandle struct {
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("vfs: write %s: file closed", h.f.name)
	}
	h.f.mu.Lock()
	h.f.append(p)
	h.f.mu.Unlock()
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("vfs: read %s: file closed", h.f.name)
	}
	// Charge the device before touching the data: reads always go to
	// the device in this model (see package comment).
	h.f.fs.dev.Read(len(p))
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	if size := h.f.size(); off < 0 || off > int64(size) {
		return 0, fmt.Errorf("vfs: read %s at %d beyond size %d: %w", h.f.name, off, size, io.EOF)
	}
	n := h.f.readAt(p, int(off))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	if h.closed {
		return fmt.Errorf("vfs: sync %s: file closed", h.f.name)
	}
	f := h.f
	for {
		f.mu.Lock()
		dirty := f.size() - f.synced
		if dirty <= 0 {
			f.mu.Unlock()
			break
		}
		chunk := dirty
		if chunk > syncChunk {
			chunk = syncChunk
		}
		f.synced += chunk
		f.mu.Unlock()
		f.fs.dev.Write(chunk)
	}
	f.fs.dev.Sync()
	return nil
}

// Close closes the handle; closing it again does nothing. The last
// close of an unlinked file drops it.
func (h *memHandle) Close() error {
	fs := h.f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	if h.f.handles--; h.f.handles == 0 && h.f.unlinked {
		fs.dropLocked(h.f)
	}
	return nil
}

// ---------------------------------------------------------------------
// Prefix filesystem

// Prefix exposes a sub-namespace of another FS: every name is joined
// with a fixed prefix on the way in and stripped on the way out of
// List. It gives each shard of a sharded DB its own flat namespace
// inside one underlying filesystem (and one crash/fault domain), which
// is what lets a single faultfs snapshot capture a whole multi-shard
// store at one instant.
type Prefix struct {
	fs     FS
	prefix string
}

// NewPrefix returns an FS that prepends prefix to every name. A
// conventional prefix ends in "/" so underlying names read like paths.
func NewPrefix(fs FS, prefix string) *Prefix {
	return &Prefix{fs: fs, prefix: prefix}
}

// Create creates (truncating) prefix+name.
func (p *Prefix) Create(name string) (File, error) { return p.fs.Create(p.prefix + name) }

// Open opens prefix+name for reading.
func (p *Prefix) Open(name string) (File, error) { return p.fs.Open(p.prefix + name) }

// Remove deletes prefix+name.
func (p *Prefix) Remove(name string) error { return p.fs.Remove(p.prefix + name) }

// Rename renames within the prefix namespace.
func (p *Prefix) Rename(oldname, newname string) error {
	return p.fs.Rename(p.prefix+oldname, p.prefix+newname)
}

// List returns the names under the prefix, with the prefix stripped.
func (p *Prefix) List() ([]string, error) {
	all, err := p.fs.List()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, n := range all {
		if strings.HasPrefix(n, p.prefix) {
			names = append(names, n[len(p.prefix):])
		}
	}
	return names, nil
}

// Size returns the size of prefix+name.
func (p *Prefix) Size(name string) (int64, error) { return p.fs.Size(p.prefix + name) }

// ---------------------------------------------------------------------
// OS filesystem

// OS is an FS rooted at a real directory.
type OS struct{ dir string }

// NewOS returns an FS over dir, creating it if needed.
func NewOS(dir string) (*OS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: mkdir %s: %w", dir, err)
	}
	return &OS{dir: dir}, nil
}

func (fs *OS) path(name string) string {
	return fs.dir + string(os.PathSeparator) + name
}

// Create creates (truncating) name under the root directory. Names may
// contain '/' (the Prefix layout shardeddb uses); intermediate
// directories are created on demand so a flat-namespace caller never
// has to know whether the FS maps slashes to real directories.
func (fs *OS) Create(name string) (File, error) {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		if err := os.MkdirAll(fs.path(name[:i]), 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(fs.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return newOSFile(f), nil
}

// Open opens name for read (and append, see MemFS.Open).
func (fs *OS) Open(name string) (File, error) {
	f, err := os.OpenFile(fs.path(name), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return newOSFile(f), nil
}

// Remove deletes name.
func (fs *OS) Remove(name string) error { return os.Remove(fs.path(name)) }

// Rename renames oldname to newname.
func (fs *OS) Rename(oldname, newname string) error {
	return os.Rename(fs.path(oldname), fs.path(newname))
}

// List returns the names of regular files under the root, sorted.
// Files in subdirectories are reported with '/'-separated relative
// names, mirroring how MemFS stores slash-bearing names flat — so a
// Prefix view over either FS sees the same namespace.
func (fs *OS) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(fs.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		rel, rerr := filepath.Rel(fs.dir, p)
		if rerr != nil {
			return rerr
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Size returns the size of name.
func (fs *OS) Size(name string) (int64, error) {
	fi, err := os.Stat(fs.path(name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

type osFile struct {
	f  *os.File
	mu sync.Mutex // serialize appends
}

// newOSFile wraps f. os.File already carries a runtime finalizer that
// closes the descriptor when the handle is garbage collected, which is
// what lets the engine's table cache drop evicted readers without an
// explicit Close while concurrent readers drain.
func newOSFile(f *os.File) *osFile { return &osFile{f: f} }

func (f *osFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.f.Write(p)
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f *osFile) Sync() error                             { return f.f.Sync() }
func (f *osFile) Close() error                            { return f.f.Close() }

var (
	_ FS = (*MemFS)(nil)
	_ FS = (*OS)(nil)
	_ FS = (*Prefix)(nil)
)
