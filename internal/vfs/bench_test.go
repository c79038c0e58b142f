package vfs

import (
	"math/rand"
	"testing"
)

const benchFileSize = 4 << 20 // one WAL or one flushed SST at DefaultOptions

// BenchmarkMemFSAppend times writing one 4 MiB file: as 4096 records of
// 1 KiB (the WAL's shape, and roughly the table builder's) and as one
// write.
func BenchmarkMemFSAppend(b *testing.B) {
	for _, bc := range []struct {
		name   string
		record int
	}{{"1KiBx4096", 1 << 10}, {"4MiBx1", benchFileSize}} {
		b.Run(bc.name, func(b *testing.B) {
			fs := newMem()
			rec := make([]byte, bc.record)
			b.SetBytes(benchFileSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _ := fs.Create("f")
				for n := 0; n < benchFileSize; n += len(rec) {
					if _, err := f.Write(rec); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMemFSReadAt4K times a 4 KiB ReadAt at a random, unaligned
// offset of a 4 MiB file: an SST block read.
func BenchmarkMemFSReadAt4K(b *testing.B) {
	fs := newMem()
	f, _ := fs.Create("f")
	if _, err := f.Write(make([]byte, benchFileSize)); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	offs := make([]int64, 1<<12)
	for i := range offs {
		offs[i] = rng.Int63n(benchFileSize - 4096)
	}
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, offs[i%len(offs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemFSSmallFile times create + one 64-byte write + sync: a
// CURRENT file, or a MANIFEST with one edit — what a chunked file must
// not make dearer.
func BenchmarkMemFSSmallFile(b *testing.B) {
	fs := newMem()
	rec := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, _ := fs.Create("f")
		if _, err := f.Write(rec); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
