package keys

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	ik := Make([]byte("hello"), 42, KindSet)
	if got := UserKey(ik); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("UserKey = %q", got)
	}
	seq, kind := Trailer(ik)
	if seq != 42 || kind != KindSet {
		t.Fatalf("Trailer = %d, %d", seq, kind)
	}
}

func TestRoundTripDelete(t *testing.T) {
	ik := Make([]byte("k"), MaxSeq, KindDelete)
	seq, kind := Trailer(ik)
	if seq != MaxSeq || kind != KindDelete {
		t.Fatalf("Trailer = %d, %d", seq, kind)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(user []byte, seq uint64, kindBit bool) bool {
		seq &= MaxSeq
		kind := KindSet
		if kindBit {
			kind = KindDelete
		}
		ik := Make(user, seq, kind)
		gotSeq, gotKind := Trailer(ik)
		return bytes.Equal(UserKey(ik), user) && gotSeq == seq && gotKind == kind
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareUserKeyOrder(t *testing.T) {
	a := Make([]byte("a"), 1, KindSet)
	b := Make([]byte("b"), 1, KindSet)
	if Compare(a, b) >= 0 {
		t.Fatal("a should sort before b")
	}
	if Compare(b, a) <= 0 {
		t.Fatal("b should sort after a")
	}
	if Compare(a, a) != 0 {
		t.Fatal("a should equal a")
	}
}

func TestCompareSeqDescending(t *testing.T) {
	newer := Make([]byte("k"), 10, KindSet)
	older := Make([]byte("k"), 5, KindSet)
	if Compare(newer, older) >= 0 {
		t.Fatal("newer seq must sort before older for the same user key")
	}
}

func TestCompareKindTieBreak(t *testing.T) {
	set := Make([]byte("k"), 7, KindSet)
	del := Make([]byte("k"), 7, KindDelete)
	// Higher kind value sorts first (descending trailer).
	if Compare(set, del) >= 0 {
		t.Fatal("set (kind 1) must sort before delete (kind 0) at equal seq")
	}
}

func TestCompareOrderProperty(t *testing.T) {
	// For random pairs: user key order dominates; equal user keys
	// order by descending seq.
	f := func(u1, u2 []byte, s1, s2 uint64) bool {
		s1 &= MaxSeq
		s2 &= MaxSeq
		a := Make(u1, s1, KindSet)
		b := Make(u2, s2, KindSet)
		c := Compare(a, b)
		switch bytes.Compare(u1, u2) {
		case -1:
			return c < 0
		case 1:
			return c > 0
		default:
			switch {
			case s1 > s2:
				return c < 0
			case s1 < s2:
				return c > 0
			default:
				return c == 0
			}
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSearchKeyFindsNewestVisible(t *testing.T) {
	// Entries for "k" at seqs 5, 10, 15. SearchKey(k, 12) must sort
	// after seq-15 entries and before seq-10 entries.
	e5 := Make([]byte("k"), 5, KindSet)
	e10 := Make([]byte("k"), 10, KindSet)
	e15 := Make([]byte("k"), 15, KindSet)
	sk := SearchKey([]byte("k"), 12)
	if Compare(e15, sk) >= 0 {
		t.Fatal("entry seq 15 must sort before SearchKey(12)")
	}
	if Compare(sk, e10) >= 0 {
		t.Fatal("SearchKey(12) must sort before entry seq 10")
	}
	if Compare(sk, e5) >= 0 {
		t.Fatal("SearchKey(12) must sort before entry seq 5")
	}
}

func TestAppendSearchKeyMatchesSearchKey(t *testing.T) {
	want := SearchKey([]byte("user-key"), 77)
	var buf [4]byte // too small: append must grow, not truncate
	if got := AppendSearchKey(buf[:0], []byte("user-key"), 77); !bytes.Equal(got, want) {
		t.Fatalf("AppendSearchKey = %x, want %x", got, want)
	}
	if got := AppendSearchKey([]byte("pre"), []byte("user-key"), 77); !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
		t.Fatalf("AppendSearchKey did not append after dst: %x", got)
	}
}

func TestValid(t *testing.T) {
	if Valid([]byte("short")) {
		t.Fatal("5 bytes is not a valid internal key")
	}
	if !Valid(Make(nil, 0, KindSet)) {
		t.Fatal("trailer-only key is valid (empty user key)")
	}
}

func TestStringFormat(t *testing.T) {
	s := String(Make([]byte("k"), 3, KindDelete))
	if s != `"k"#3,DEL` {
		t.Fatalf("String = %s", s)
	}
	if String([]byte("x")) == "" {
		t.Fatal("invalid key should still format")
	}
}
