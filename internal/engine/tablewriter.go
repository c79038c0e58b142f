package engine

import (
	"fmt"

	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
	"xpointdb/internal/vfs"
)

// tableWriter owns one SST output from create to FileMeta: flush and
// every sub-compaction lane write their files through it, so the build
// options, the sync → paranoid check → close order and the space
// accounting exist once. Cost-model charges stay with the callers —
// they differ per job and fix where virtual time passes.
type tableWriter struct {
	db  *DB
	num uint64
	f   vfs.File
	b   *sstable.Builder
}

// newTableWriter creates SST file num and a builder over it.
func (db *DB) newTableWriter(num uint64) (*tableWriter, error) {
	name := manifest.SSTName(num)
	f, err := db.fs.Create(name)
	if err != nil {
		return nil, fmt.Errorf("engine: create %s: %w", name, err)
	}
	return &tableWriter{db: db, num: num, f: f, b: sstable.NewBuilder(f, sstable.BuilderOptions{
		BlockSize:       db.opts.BlockSize,
		BloomBitsPerKey: db.opts.BloomBitsPerKey,
	})}, nil
}

// add appends one entry; keys must arrive in internal-key order.
func (w *tableWriter) add(ikey, value []byte) error { return w.b.Add(ikey, value) }

// estimatedSize is the file size if finish were called now.
func (w *tableWriter) estimatedSize() int64 { return w.b.EstimatedSize() }

// finish completes the table, makes it durable, verifies it when
// Options.ParanoidFileChecks is set, closes it and records its bytes
// as used space. On any failure the handle is closed and the file is
// left for the job's failed-output cleanup.
func (w *tableWriter) finish() (*manifest.FileMeta, error) {
	size, err := w.b.Finish()
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil && w.db.opts.ParanoidFileChecks {
		err = w.db.paranoidVerify(w.f, size, w.num, w.b.Checksum())
	}
	if err != nil {
		w.abort()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		return nil, err
	}
	w.db.spaceTrack(manifest.SSTName(w.num), size)
	return &manifest.FileMeta{
		Num:      w.num,
		Size:     size,
		Smallest: w.b.Smallest(),
		Largest:  w.b.Largest(),
		Checksum: w.b.Checksum(),
	}, nil
}

// abort closes the handle of a table that will not be finished.
func (w *tableWriter) abort() { _ = w.f.Close() }
