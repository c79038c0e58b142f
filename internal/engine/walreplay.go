package engine

import (
	"errors"
	"fmt"
	"io"

	"xpointdb/internal/batch"
	"xpointdb/internal/keys"
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
