package iterator

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"xpointdb/internal/keys"
)

// fakeIter is an in-memory Iterator over pre-sorted internal keys.
type fakeIter struct {
	keys   [][]byte
	vals   [][]byte
	idx    int
	err    error
	closed bool
}

func newFake(pairs ...string) *fakeIter {
	// pairs are "user:seq:value" triples, must be pre-sorted.
	f := &fakeIter{idx: -1}
	for _, p := range pairs {
		var user, val string
		var seq uint64
		fmt.Sscanf(p, "%s", &user)
		parts := bytes.SplitN([]byte(p), []byte(":"), 3)
		user = string(parts[0])
		fmt.Sscanf(string(parts[1]), "%d", &seq)
		val = string(parts[2])
		f.keys = append(f.keys, keys.Make([]byte(user), seq, keys.KindSet))
		f.vals = append(f.vals, []byte(val))
	}
	return f
}

func (f *fakeIter) Valid() bool { return f.err == nil && f.idx >= 0 && f.idx < len(f.keys) }
func (f *fakeIter) SeekGE(target []byte) {
	f.idx = sort.Search(len(f.keys), func(i int) bool { return keys.Compare(f.keys[i], target) >= 0 })
}
func (f *fakeIter) SeekLT(target []byte) {
	f.idx = sort.Search(len(f.keys), func(i int) bool { return keys.Compare(f.keys[i], target) >= 0 }) - 1
}
func (f *fakeIter) SeekToFirst() { f.idx = 0 }
func (f *fakeIter) SeekToLast()  { f.idx = len(f.keys) - 1 }
func (f *fakeIter) Next()        { f.idx++ }
func (f *fakeIter) Prev()        { f.idx-- }
func (f *fakeIter) Key() []byte  { return f.keys[f.idx] }
func (f *fakeIter) Value() []byte {
	return f.vals[f.idx]
}
func (f *fakeIter) Error() error { return f.err }
func (f *fakeIter) Close() error { f.closed = true; return f.err }

func collect(t *testing.T, it Iterator) []string {
	t.Helper()
	var out []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		out = append(out, fmt.Sprintf("%s=%s", keys.UserKey(it.Key()), it.Value()))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return out
}

func TestMergingInterleaves(t *testing.T) {
	a := newFake("a:1:1", "c:1:3", "e:1:5")
	b := newFake("b:1:2", "d:1:4", "f:1:6")
	m := NewMerging(a, b)
	got := collect(t, m)
	want := []string{"a=1", "b=2", "c=3", "d=4", "e=5", "f=6"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged = %v", got)
	}
}

func TestMergingSameUserKeyNewestFirst(t *testing.T) {
	a := newFake("k:5:new")
	b := newFake("k:2:old")
	m := NewMerging(a, b)
	m.SeekToFirst()
	if !m.Valid() || string(m.Value()) != "new" {
		t.Fatalf("first = %q", m.Value())
	}
	m.Next()
	if !m.Valid() || string(m.Value()) != "old" {
		t.Fatalf("second = %q", m.Value())
	}
}

func TestMergingSeekGE(t *testing.T) {
	a := newFake("a:1:1", "e:1:5")
	b := newFake("c:1:3", "g:1:7")
	m := NewMerging(a, b)
	m.SeekGE(keys.SearchKey([]byte("d"), keys.MaxSeq))
	if !m.Valid() || string(keys.UserKey(m.Key())) != "e" {
		t.Fatalf("SeekGE(d) = %s", keys.String(m.Key()))
	}
}

func TestMergingEmptyChildren(t *testing.T) {
	m := NewMerging(newFake(), newFake("a:1:1"), newFake())
	got := collect(t, m)
	if len(got) != 1 || got[0] != "a=1" {
		t.Fatalf("got %v", got)
	}
	empty := NewMerging()
	empty.SeekToFirst()
	if empty.Valid() {
		t.Fatal("empty merge valid")
	}
}

func TestMergingPropagatesErrors(t *testing.T) {
	bad := newFake("a:1:1")
	bad.err = errors.New("boom")
	m := NewMerging(bad)
	m.SeekToFirst()
	if m.Valid() {
		t.Fatal("valid despite child error")
	}
	if m.Error() == nil {
		t.Fatal("error swallowed")
	}
}

func TestMergingCloseClosesChildren(t *testing.T) {
	a, b := newFake("a:1:1"), newFake("b:1:2")
	m := NewMerging(a, b)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !a.closed || !b.closed {
		t.Fatal("children not closed")
	}
}

func TestMergingAgainstReferenceMerge(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		mk := func(vals []uint16, child int) (*fakeIter, [][]byte) {
			sorted := append([]uint16(nil), vals...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			it := &fakeIter{idx: -1}
			var ks [][]byte
			seen := map[uint16]bool{}
			for _, v := range sorted {
				if seen[v] {
					continue
				}
				seen[v] = true
				k := keys.Make([]byte(fmt.Sprintf("%05d-%d", v, child)), 1, keys.KindSet)
				it.keys = append(it.keys, k)
				it.vals = append(it.vals, nil)
				ks = append(ks, k)
			}
			return it, ks
		}
		a, ka := mk(xs, 0)
		b, kb := mk(ys, 1)
		all := append(append([][]byte{}, ka...), kb...)
		sort.Slice(all, func(i, j int) bool { return keys.Compare(all[i], all[j]) < 0 })

		m := NewMerging(a, b)
		i := 0
		for m.SeekToFirst(); m.Valid(); m.Next() {
			if i >= len(all) || !bytes.Equal(m.Key(), all[i]) {
				return false
			}
			i++
		}
		return i == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------

func concatOver(children []*fakeIter) *Concat {
	var boundGE func(i int, target []byte) bool
	boundGE = func(i int, target []byte) bool {
		ks := children[i].keys
		if len(ks) == 0 {
			// An empty child takes the bound of the one before it,
			// which keeps boundGE monotone.
			return i > 0 && boundGE(i-1, target)
		}
		return keys.Compare(ks[len(ks)-1], target) >= 0
	}
	return NewConcat(len(children),
		func(i int) (Iterator, error) { return children[i], nil },
		boundGE)
}

func TestConcatScans(t *testing.T) {
	c := concatOver([]*fakeIter{
		newFake("a:1:1", "b:1:2"),
		newFake("c:1:3"),
		newFake("d:1:4", "e:1:5"),
	})
	got := collect(t, c)
	if fmt.Sprint(got) != "[a=1 b=2 c=3 d=4 e=5]" {
		t.Fatalf("concat = %v", got)
	}
}

func TestConcatSkipsToRightChild(t *testing.T) {
	opened := 0
	children := []*fakeIter{newFake("a:1:1"), newFake("c:1:3"), newFake("e:1:5")}
	c := NewConcat(3,
		func(i int) (Iterator, error) { opened++; return children[i], nil },
		func(i int, target []byte) bool {
			ks := children[i].keys
			return keys.Compare(ks[len(ks)-1], target) >= 0
		})
	c.SeekGE(keys.SearchKey([]byte("d"), keys.MaxSeq))
	if !c.Valid() || string(keys.UserKey(c.Key())) != "e" {
		t.Fatalf("SeekGE(d) = %s", keys.String(c.Key()))
	}
	if opened != 1 {
		t.Fatalf("opened %d children, want 1 (lazy)", opened)
	}
	// Seeks that land on the open child reposition it rather than
	// closing and reopening it; one that lands elsewhere swaps it.
	c.SeekGE(keys.SearchKey([]byte("e"), keys.MaxSeq))
	c.SeekLT(keys.SearchKey([]byte("f"), keys.MaxSeq))
	if !c.Valid() || string(keys.UserKey(c.Key())) != "e" || opened != 1 || children[2].closed {
		t.Fatalf("re-seek into the open child: key %s, opened %d, closed %v", keys.String(c.Key()), opened, children[2].closed)
	}
	c.SeekGE(keys.SearchKey([]byte("a"), keys.MaxSeq))
	if !c.Valid() || string(keys.UserKey(c.Key())) != "a" || opened != 2 || !children[2].closed {
		t.Fatalf("seek into another child: key %s, opened %d, old child closed %v", keys.String(c.Key()), opened, children[2].closed)
	}
}

func TestConcatEmptyMiddleChild(t *testing.T) {
	c := concatOver([]*fakeIter{newFake("a:1:1"), newFake(), newFake("z:1:9")})
	got := collect(t, c)
	if fmt.Sprint(got) != "[a=1 z=9]" {
		t.Fatalf("got %v", got)
	}
}

func TestConcatOpenErrorSurfaces(t *testing.T) {
	c := NewConcat(1,
		func(i int) (Iterator, error) { return nil, errors.New("open failed") },
		func(i int, target []byte) bool { return true })
	c.SeekToFirst()
	if c.Valid() || c.Error() == nil {
		t.Fatal("open error not surfaced")
	}
}

func TestConcatSeekPastEverything(t *testing.T) {
	c := concatOver([]*fakeIter{newFake("a:1:1")})
	c.SeekGE(keys.SearchKey([]byte("z"), keys.MaxSeq))
	if c.Valid() {
		t.Fatal("seek past end valid")
	}
}

// TestConcatSeekBinarySearch checks, on randomized levels, that SeekGE
// and SeekLT land where a linear search over the children puts them,
// and that finding the child calls boundGE at most ⌈log₂ n⌉+1 times.
func TestConcatSeekBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		// Disjoint, ordered children: each takes a run of distinct
		// even numbers, so every odd number falls between entries.
		var children []*fakeIter
		var all []string
		next := 0
		for i := 0; i < n; i++ {
			next += 2 * rng.Intn(3)
			var pairs []string
			for j := 1 + rng.Intn(4); j > 0; j-- {
				k := fmt.Sprintf("k%05d", next)
				pairs = append(pairs, k+":1:"+k)
				all = append(all, k)
				next += 2
			}
			children = append(children, newFake(pairs...))
		}
		calls := 0
		c := NewConcat(n,
			func(i int) (Iterator, error) {
				f := *children[i]
				return &f, nil
			},
			func(i int, target []byte) bool {
				calls++
				ks := children[i].keys
				return keys.Compare(ks[len(ks)-1], target) >= 0
			})
		maxCalls := bits.Len(uint(n-1)) + 1 // ⌈log₂ n⌉ + 1
		for probe := -1; probe <= next+1; probe++ {
			target := keys.SearchKey([]byte(fmt.Sprintf("k%05d", probe)), keys.MaxSeq)
			if probe < 0 {
				target = keys.SearchKey([]byte("a"), keys.MaxSeq)
			}
			// The linear search: the first key ≥ target, the last < it.
			ge := sort.Search(len(all), func(i int) bool {
				return keys.Compare(keys.Make([]byte(all[i]), 1, keys.KindSet), target) >= 0
			})
			for _, dir := range []string{"SeekGE", "SeekLT"} {
				calls = 0
				want := ge
				if dir == "SeekGE" {
					c.SeekGE(target)
				} else {
					c.SeekLT(target)
					want = ge - 1
				}
				if calls > maxCalls {
					t.Fatalf("trial %d, %d children: %s(%d) called boundGE %d times, more than %d", trial, n, dir, probe, calls, maxCalls)
				}
				got := "invalid"
				if c.Valid() {
					got = string(keys.UserKey(c.Key()))
				}
				wantKey := "invalid"
				if want >= 0 && want < len(all) {
					wantKey = all[want]
				}
				if got != wantKey {
					t.Fatalf("trial %d: %s(%d) = %s, want %s", trial, dir, probe, got, wantKey)
				}
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
