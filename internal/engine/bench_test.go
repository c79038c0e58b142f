package engine

import (
	"testing"

	"xpointdb/internal/clock"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// BenchmarkOpenCloseEmpty times Open + Close of an empty store at
// DefaultOptions on a fresh MemFS: CURRENT, one MANIFEST, one WAL —
// all small files — plus the engine's own start-up and shutdown.
func BenchmarkOpenCloseEmpty(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
		db, err := Open(DefaultOptions(fs))
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
