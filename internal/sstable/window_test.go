package sstable

import (
	"fmt"
	"testing"

	"xpointdb/internal/keys"
)

// TestDataWindowCoversRange checks a windowed reader serves every key
// inside [start, end) — including the boundary-straddling block the
// window deliberately over-includes — for a sweep of range positions.
func TestDataWindowCoversRange(t *testing.T) {
	const n = 2000
	opts := DefaultBuilderOptions()
	opts.BlockSize = 512 // many blocks, so windows are real subsets
	r, fs := buildTable(t, n, nil, opts)

	user := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

	cases := []struct{ lo, hi int }{
		{0, n},       // full range (nil bounds handled below)
		{0, 100},     // prefix
		{n - 50, n},  // suffix
		{700, 1400},  // interior
		{1234, 1235}, // single key
	}
	for _, tc := range cases {
		var startIK, endIK []byte
		if tc.lo > 0 {
			startIK = keys.SearchKey(user(tc.lo), keys.MaxSeq)
		}
		if tc.hi < n {
			endIK = keys.SearchKey(user(tc.hi), keys.MaxSeq)
		}
		off, length, err := r.DataWindow(startIK, endIK)
		if err != nil {
			t.Fatalf("[%d,%d): DataWindow: %v", tc.lo, tc.hi, err)
		}
		if length <= 0 {
			t.Fatalf("[%d,%d): empty window", tc.lo, tc.hi)
		}
		full, _ := fs.Open("t.sst")
		data := make([]byte, length)
		if _, err := full.ReadAt(data, off); err != nil {
			t.Fatalf("[%d,%d): read window: %v", tc.lo, tc.hi, err)
		}
		full.Close()

		wr := r.WithWindow(data, off)
		it := wr.NewIter()
		if startIK != nil {
			it.SeekGE(startIK)
		} else {
			it.SeekToFirst()
		}
		i := tc.lo
		for ; it.Valid(); it.Next() {
			if endIK != nil && keys.Compare(it.Key(), endIK) >= 0 {
				break
			}
			if got, want := string(keys.UserKey(it.Key())), string(user(i)); got != want {
				t.Fatalf("[%d,%d): key %q, want %q", tc.lo, tc.hi, got, want)
			}
			if got, want := string(it.Value()), fmt.Sprintf("value-%06d", i); got != want {
				t.Fatalf("[%d,%d): value %q, want %q", tc.lo, tc.hi, got, want)
			}
			i++
		}
		if err := it.Close(); err != nil {
			t.Fatalf("[%d,%d): iter close: %v", tc.lo, tc.hi, err)
		}
		if i != tc.hi {
			t.Fatalf("[%d,%d): iterated to %d", tc.lo, tc.hi, i)
		}
	}
}

// TestDataWindowSmallerThanTable checks an interior window is actually
// a strict subset of the file (the point of windowed reads: no K×
// read amplification when a table is split across sub-compactions).
func TestDataWindowSmallerThanTable(t *testing.T) {
	opts := DefaultBuilderOptions()
	opts.BlockSize = 512
	r, _ := buildTable(t, 2000, nil, opts)

	startIK := keys.SearchKey([]byte("key-000900"), keys.MaxSeq)
	endIK := keys.SearchKey([]byte("key-001000"), keys.MaxSeq)
	off, length, err := r.DataWindow(startIK, endIK)
	if err != nil {
		t.Fatal(err)
	}
	if off == 0 {
		t.Fatal("interior window starts at file offset 0")
	}
	if length >= r.Size()/2 {
		t.Fatalf("window of 100/2000 keys spans %d of %d bytes", length, r.Size())
	}
}

// TestDataWindowDisjointFile checks a range entirely outside the table
// returns an empty window (the engine then skips the file).
func TestDataWindowDisjointFile(t *testing.T) {
	r, _ := buildTable(t, 100, nil, DefaultBuilderOptions())
	startIK := keys.SearchKey([]byte("zzz-after-everything"), keys.MaxSeq)
	_, length, err := r.DataWindow(startIK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if length != 0 {
		t.Fatalf("window past the last key has %d bytes", length)
	}
}
