package batch

import (
	"bytes"
	"testing"

	"xpointdb/internal/keys"
)

// FuzzFromRepr feeds arbitrary bytes to the batch wire-format decoder:
// it must accept exactly the reprs whose full record walk succeeds,
// and never panic. Accepted batches must iterate cleanly with the
// advertised count.
func FuzzFromRepr(f *testing.F) {
	var seed Batch
	seed.Put([]byte("key"), []byte("value"))
	seed.Delete([]byte("gone"))
	seed.SetSequence(42)
	f.Add(append([]byte(nil), seed.Repr()...))
	f.Add([]byte{})
	f.Add(make([]byte, 12))          // header only, zero count
	f.Add(append(seed.Repr(), 0xff)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := FromRepr(data)
		if err != nil {
			return
		}
		var n uint32
		werr := b.Iterate(func(kind keys.Kind, key, value []byte) error {
			n++
			if kind != keys.KindSet && kind != keys.KindDelete {
				t.Fatalf("accepted batch yields kind %d", kind)
			}
			return nil
		})
		if werr != nil {
			t.Fatalf("accepted batch fails iteration: %v", werr)
		}
		if n != b.Count() {
			t.Fatalf("accepted batch iterates %d records, Count()=%d", n, b.Count())
		}
		if !bytes.Equal(b.Repr(), data) {
			t.Fatalf("Repr() does not round-trip the accepted input")
		}
	})
}
