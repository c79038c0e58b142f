package engine

import (
	"fmt"

	"xpointdb/internal/batch"
	"xpointdb/internal/keys"
	"xpointdb/internal/memtable"
	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

// replayLogInto applies every batch in a WAL file to mem, skipping
// batches at or below baseSeq (already durable in SSTs). It returns
// the highest sequence number applied. A torn tail ends the replay
// cleanly (wal.Replay), matching the crash-recovery contract: only
// fully synced records are promised.
func replayLogInto(f vfs.File, mem *memtable.Memtable, baseSeq uint64) (uint64, error) {
	maxSeq := baseSeq
	_, err := wal.Replay(f, func(rec []byte) error {
		b, err := batch.FromRepr(rec)
		if err != nil {
			// A decodable-record/corrupt-batch combination means
			// real corruption, not a torn tail.
			return fmt.Errorf("engine: corrupt batch in wal: %w", err)
		}
		seq := b.Sequence()
		if err := b.Iterate(func(kind keys.Kind, key, value []byte) error {
			if seq > baseSeq {
				mem.Add(seq, kind, key, value)
			}
			seq++
			return nil
		}); err != nil {
			return err
		}
		if seq-1 > maxSeq {
			maxSeq = seq - 1
		}
		return nil
	})
	return maxSeq, err
}
