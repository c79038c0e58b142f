package skiplist

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchKeys returns n distinct internal keys in a seeded random order,
// shaped like the benchmark's (16-byte user key).
func benchKeys(n int, seed int64) [][]byte {
	ks := make([][]byte, n)
	for i, id := range rand.New(rand.NewSource(seed)).Perm(n) {
		ks[i] = ik(fmt.Sprintf("user%012d", id), uint64(i+1))
	}
	return ks
}

var benchSizes = []struct {
	name string
	n    int
}{{"4k", 4 << 10}, {"64k", 64 << 10}}

// BenchmarkInsert times one Insert into a list already holding about n
// entries (n to 1.25 n: the list is rebuilt, untimed, every n/4 timed
// inserts) — 4k is what a 4 MiB memtable of 1 KiB values holds.
func BenchmarkInsert(b *testing.B) {
	for _, sz := range benchSizes {
		n := sz.n
		b.Run(sz.name, func(b *testing.B) {
			ks := benchKeys(n+n/4, 1)
			value := make([]byte, 8)
			b.ReportAllocs()
			var s *SkipList
			for i := 0; i < b.N; i++ {
				j := i % (n / 4)
				if j == 0 {
					b.StopTimer()
					s = New()
					for _, k := range ks[:n] {
						s.Insert(k, value)
					}
					b.StartTimer()
				}
				s.Insert(ks[n+j], value)
			}
		})
	}
}

var sinkValue []byte

// BenchmarkGet times one Get of a present key in a list of n entries.
func BenchmarkGet(b *testing.B) {
	for _, sz := range benchSizes {
		n := sz.n
		b.Run(sz.name, func(b *testing.B) {
			ks := benchKeys(n, 1)
			s := New()
			for _, k := range ks {
				s.Insert(k, k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkValue, _ = s.Get(ks[i%n])
			}
		})
	}
}
