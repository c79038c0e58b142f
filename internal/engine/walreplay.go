package engine

import (
	"errors"
	"fmt"
	"io"

	"xpointdb/internal/batch"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/memtable"
	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

// replayLogInto applies every batch in a WAL file to mem, skipping
// batches at or below baseSeq (already durable in SSTs). It returns
// the highest sequence number applied. A torn tail (wal.ErrCorrupt)
// ends the replay cleanly, matching the crash-recovery contract: only
// fully synced records are promised.
func replayLogInto(f vfs.File, mem *memtable.Memtable, baseSeq uint64) (uint64, error) {
	r := wal.NewReader(f)
	maxSeq := baseSeq
	for {
		rec, err := r.ReadRecord()
		if errors.Is(err, io.EOF) || errors.Is(err, wal.ErrCorrupt) {
			return maxSeq, nil
		}
		if err != nil {
			return maxSeq, err
		}
		b, err := batch.FromRepr(rec)
		if err != nil {
			// A decodable-record/corrupt-batch combination means
			// real corruption, not a torn tail.
			return maxSeq, fmt.Errorf("engine: corrupt batch in wal: %w", err)
		}
		seq := b.Sequence()
		applyErr := b.Iterate(func(kind keys.Kind, key, value []byte) error {
			if seq > baseSeq {
				mem.Add(seq, kind, key, value)
			}
			seq++
			return nil
		})
		if applyErr != nil {
			return maxSeq, applyErr
		}
		if seq-1 > maxSeq {
			maxSeq = seq - 1
		}
	}
}

// flushMemToL0 writes mem as one Level-0 SST and commits the edit.
// Used by recovery, before background workers exist. editExtra, if
// non-nil, is merged into the committed edit.
func (db *DB) flushMemToL0(mem *memtable.Memtable, editExtra *manifest.Edit) error {
	num := db.vs.AllocFileNum()
	db.emitFlushBegin("recovery", 0, mem.ApproximateSize(), 0)
	start := db.clk.Now()
	meta, err := db.buildTable(num, newMemIter(mem))
	if err != nil {
		db.emitFlushEnd("recovery", 0, num, 0, 0, db.clk.Now().Sub(start), err)
		return err
	}
	edit := &manifest.Edit{Added: []manifest.AddedFile{{Level: 0, Meta: meta}}}
	if editExtra != nil {
		edit.LogNum = editExtra.LogNum
		edit.Added = append(edit.Added, editExtra.Added...)
		edit.Deleted = append(edit.Deleted, editExtra.Deleted...)
	}
	seq := db.vs.LastSeq
	edit.LastSeq = &seq
	err = db.vs.LogAndApply(edit)
	db.emitFlushEnd("recovery", 0, num, meta.Size,
		db.vs.Current().NumFiles(0), db.clk.Now().Sub(start), err)
	return err
}
