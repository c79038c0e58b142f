package batch

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"xpointdb/internal/keys"
)

type op struct {
	kind  keys.Kind
	key   []byte
	value []byte
}

func collect(t *testing.T, b *Batch) []op {
	t.Helper()
	var ops []op
	err := b.Iterate(func(kind keys.Kind, key, value []byte) error {
		ops = append(ops, op{kind, append([]byte(nil), key...), append([]byte(nil), value...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	return ops
}

func TestEmptyBatch(t *testing.T) {
	var b Batch
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("zero batch should be empty")
	}
	if got := collect(t, &b); len(got) != 0 {
		t.Fatalf("iterate empty = %v", got)
	}
}

func TestPutDeleteRoundTrip(t *testing.T) {
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Delete([]byte("b"))
	b.Put([]byte("c"), []byte("3"))
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	ops := collect(t, &b)
	want := []op{
		{keys.KindSet, []byte("a"), []byte("1")},
		{keys.KindDelete, []byte("b"), nil},
		{keys.KindSet, []byte("c"), []byte("3")},
	}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops", len(ops))
	}
	for i := range want {
		if ops[i].kind != want[i].kind || !bytes.Equal(ops[i].key, want[i].key) || !bytes.Equal(ops[i].value, want[i].value) {
			t.Fatalf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
}

func TestSequence(t *testing.T) {
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	b.SetSequence(12345)
	if b.Sequence() != 12345 {
		t.Fatalf("Sequence = %d", b.Sequence())
	}
}

func TestReprRoundTrip(t *testing.T) {
	var b Batch
	b.SetSequence(99)
	b.Put([]byte("key1"), []byte("value1"))
	b.Delete([]byte("key2"))

	b2, err := FromRepr(append([]byte(nil), b.Repr()...))
	if err != nil {
		t.Fatalf("FromRepr: %v", err)
	}
	if b2.Sequence() != 99 || b2.Count() != 2 {
		t.Fatalf("decoded seq=%d count=%d", b2.Sequence(), b2.Count())
	}
	ops := collect(t, b2)
	if string(ops[0].key) != "key1" || string(ops[0].value) != "value1" || ops[1].kind != keys.KindDelete {
		t.Fatalf("decoded ops = %+v", ops)
	}
}

func TestFromReprRejectsGarbage(t *testing.T) {
	if _, err := FromRepr([]byte("tiny")); err == nil {
		t.Fatal("short repr accepted")
	}
	// Valid header claiming 3 records but no payload.
	bad := make([]byte, 12)
	bad[8] = 3
	if _, err := FromRepr(bad); err == nil {
		t.Fatal("count mismatch accepted")
	}
	// Unknown kind byte.
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	rep := append([]byte(nil), b.Repr()...)
	rep[12] = 0xEE
	if _, err := FromRepr(rep); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestAppendMergesGroups(t *testing.T) {
	var a, b Batch
	a.SetSequence(10)
	a.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("c"))
	a.Append(&b)
	if a.Count() != 3 {
		t.Fatalf("Count after Append = %d", a.Count())
	}
	ops := collect(t, &a)
	if string(ops[2].key) != "c" || ops[2].kind != keys.KindDelete {
		t.Fatalf("appended ops = %+v", ops)
	}
	if a.Sequence() != 10 {
		t.Fatal("Append must not clobber sequence")
	}
}

func TestReset(t *testing.T) {
	var b Batch
	b.SetSequence(5)
	b.Put([]byte("k"), []byte("v"))
	b.Reset()
	if !b.Empty() || b.Sequence() != 0 {
		t.Fatalf("after Reset: count=%d seq=%d", b.Count(), b.Sequence())
	}
	b.Put([]byte("k2"), []byte("v2"))
	if b.Count() != 1 {
		t.Fatal("batch unusable after Reset")
	}
}

// TestResetOwnership pins the ownership rule: a batch nobody committed
// resets in place and keeps its buffer, while a committed (sequenced)
// batch leaves its buffer — which the store holds slices into — as it
// is and starts a fresh one of the same capacity.
func TestResetOwnership(t *testing.T) {
	var b Batch
	b.Put([]byte("key"), []byte("first"))
	var held []byte // what a memtable would keep
	_ = b.Iterate(func(_ keys.Kind, _, value []byte) error { held = value; return nil })
	buf := &b.Repr()[0]

	b.Reset()
	if &b.Repr()[0] != buf {
		t.Fatal("Reset of an uncommitted batch dropped its buffer")
	}
	b.Put([]byte("key"), []byte("again"))
	if string(held) != "again" {
		t.Fatalf("uncommitted batch did not reset in place: held = %q", held)
	}

	b.SetSequence(7) // the write path commits it
	size := cap(b.Repr())
	b.Reset()
	if !b.Empty() || b.Sequence() != 0 {
		t.Fatalf("after Reset: count=%d seq=%d", b.Count(), b.Sequence())
	}
	if &b.Repr()[0] == buf || cap(b.Repr()) != size {
		t.Fatalf("Reset of a committed batch: same buffer %v, cap %d want %d", &b.Repr()[0] == buf, cap(b.Repr()), size)
	}
	b.Put([]byte("key"), []byte("third"))
	if string(held) != "again" {
		t.Fatalf("refill after Reset rewrote a committed value: held = %q", held)
	}
	// The fresh buffer is uncommitted again: it resets in place.
	buf = &b.Repr()[0]
	b.Reset()
	if &b.Repr()[0] != buf {
		t.Fatal("second Reset dropped an uncommitted buffer")
	}
}

func TestSizeGrows(t *testing.T) {
	var b Batch
	s0 := b.Size()
	b.Put([]byte("key"), []byte("value"))
	if b.Size() <= s0 {
		t.Fatal("Size did not grow")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ks, vs [][]byte) bool {
		var b Batch
		n := len(ks)
		if len(vs) < n {
			n = len(vs)
		}
		for i := 0; i < n; i++ {
			if i%3 == 2 {
				b.Delete(ks[i])
			} else {
				b.Put(ks[i], vs[i])
			}
		}
		b2, err := FromRepr(append([]byte(nil), b.Repr()...))
		if err != nil {
			return false
		}
		if b2.Count() != uint32(n) {
			return false
		}
		i := 0
		ok := true
		b2.Iterate(func(kind keys.Kind, key, value []byte) error {
			if !bytes.Equal(key, ks[i]) {
				ok = false
			}
			if i%3 == 2 {
				if kind != keys.KindDelete {
					ok = false
				}
			} else if !bytes.Equal(value, vs[i]) {
				ok = false
			}
			i++
			return nil
		})
		return ok && i == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLargeBatch(t *testing.T) {
	var b Batch
	for i := 0; i < 10000; i++ {
		b.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{byte(i)}, 100))
	}
	if b.Count() != 10000 {
		t.Fatalf("Count = %d", b.Count())
	}
	if got := len(collect(t, &b)); got != 10000 {
		t.Fatalf("iterated %d", got)
	}
}
