package manifest

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"xpointdb/internal/clock"
	"xpointdb/internal/keys"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

func newFS() *vfs.MemFS {
	return vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
}

func fm(num uint64, lo, hi string) *FileMeta {
	return &FileMeta{
		Num:      num,
		Size:     1000,
		Smallest: keys.Make([]byte(lo), 1, keys.KindSet),
		Largest:  keys.Make([]byte(hi), 1, keys.KindSet),
	}
}

func TestEditEncodeDecodeRoundTrip(t *testing.T) {
	log, next, seq := uint64(7), uint64(42), uint64(999)
	e := &Edit{
		LogNum:      &log,
		NextFileNum: &next,
		LastSeq:     &seq,
		Added: []AddedFile{
			{Level: 0, Meta: fm(10, "a", "m")},
			{Level: 3, Meta: fm(11, "n", "z")},
		},
		Deleted: []DeletedFile{{Level: 1, Num: 5}},
	}
	got, err := DecodeEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got.LogNum != 7 || *got.NextFileNum != 42 || *got.LastSeq != 999 {
		t.Fatalf("scalars = %d %d %d", *got.LogNum, *got.NextFileNum, *got.LastSeq)
	}
	if len(got.Added) != 2 || got.Added[1].Level != 3 || got.Added[1].Meta.Num != 11 {
		t.Fatalf("added = %+v", got.Added)
	}
	if !bytes.Equal(got.Added[0].Meta.Smallest, e.Added[0].Meta.Smallest) {
		t.Fatal("smallest key corrupted")
	}
	if len(got.Deleted) != 1 || got.Deleted[0].Num != 5 {
		t.Fatalf("deleted = %+v", got.Deleted)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeEdit([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("garbage tag accepted")
	}
	// Added file at invalid level.
	bad := (&Edit{Added: []AddedFile{{Level: 0, Meta: fm(1, "a", "b")}}}).Encode()
	bad[1] = 99 // level byte
	if _, err := DecodeEdit(bad); err == nil {
		t.Fatal("invalid level accepted")
	}
}

// TestTag4Rejected: the retired checksum-less added-file record (tag 4)
// decodes as an unknown tag. The record is the committed fuzz seed.
func TestTag4Rejected(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeEdit/legacy_tag4_added")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	rec, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEdit([]byte(rec)); err == nil || err.Error() != "manifest: unknown edit tag 4" {
		t.Fatalf("DecodeEdit(tag-4 record) = %v, want unknown edit tag 4", err)
	}
}

func TestEditRoundTripProperty(t *testing.T) {
	f := func(nums []uint64, levels []uint8) bool {
		e := &Edit{}
		n := len(nums)
		if len(levels) < n {
			n = len(levels)
		}
		for i := 0; i < n; i++ {
			lvl := int(levels[i]) % NumLevels
			e.Added = append(e.Added, AddedFile{Level: lvl, Meta: fm(nums[i], fmt.Sprintf("k%d", i), fmt.Sprintf("k%d~", i))})
		}
		got, err := DecodeEdit(e.Encode())
		if err != nil || len(got.Added) != n {
			return false
		}
		for i := range got.Added {
			if got.Added[i].Meta.Num != e.Added[i].Meta.Num || got.Added[i].Level != e.Added[i].Level {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionApplyAddDelete(t *testing.T) {
	v := &Version{}
	v1, err := v.Apply(&Edit{Added: []AddedFile{
		{Level: 0, Meta: fm(3, "a", "f")},
		{Level: 0, Meta: fm(1, "c", "k")},
		{Level: 1, Meta: fm(2, "a", "f")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// L0 ordered by file number ascending.
	if v1.Files[0][0].Num != 1 || v1.Files[0][1].Num != 3 {
		t.Fatalf("L0 order: %v", v1.DebugString())
	}
	// Original version untouched.
	if v.TotalFiles() != 0 {
		t.Fatal("Apply mutated the receiver")
	}

	v2, err := v1.Apply(&Edit{Deleted: []DeletedFile{{Level: 0, Num: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.NumFiles(0) != 1 || v2.Files[0][0].Num != 1 {
		t.Fatalf("delete failed: %v", v2.DebugString())
	}
}

func TestApplyDeleteAbsentFails(t *testing.T) {
	v := &Version{}
	if _, err := v.Apply(&Edit{Deleted: []DeletedFile{{Level: 2, Num: 9}}}); err == nil {
		t.Fatal("deleting absent file accepted")
	}
}

func TestApplyOverlapInvariant(t *testing.T) {
	v := &Version{}
	_, err := v.Apply(&Edit{Added: []AddedFile{
		{Level: 1, Meta: fm(1, "a", "m")},
		{Level: 1, Meta: fm(2, "k", "z")}, // overlaps at L1: invalid
	}})
	if err == nil {
		t.Fatal("overlapping L1 files accepted")
	}
	// Overlap at L0 is fine.
	if _, err := v.Apply(&Edit{Added: []AddedFile{
		{Level: 0, Meta: fm(1, "a", "m")},
		{Level: 0, Meta: fm(2, "k", "z")},
	}}); err != nil {
		t.Fatalf("overlapping L0 rejected: %v", err)
	}
}

// TestL0FilesOldestFirst: Level 0 is kept in ascending file-number
// order whatever order the edit lists it in; the read path probes it
// newest first by walking Files[0] backwards.
func TestL0FilesOldestFirst(t *testing.T) {
	v := &Version{}
	v1, _ := v.Apply(&Edit{Added: []AddedFile{
		{Level: 0, Meta: fm(5, "a", "b")},
		{Level: 0, Meta: fm(9, "a", "b")},
		{Level: 0, Meta: fm(2, "a", "b")},
	}})
	l0 := v1.Files[0]
	if l0[0].Num != 2 || l0[1].Num != 5 || l0[2].Num != 9 {
		t.Fatalf("L0 order: %d %d %d", l0[0].Num, l0[1].Num, l0[2].Num)
	}
}

func TestOverlaps(t *testing.T) {
	v := &Version{}
	v1, _ := v.Apply(&Edit{Added: []AddedFile{
		{Level: 1, Meta: fm(1, "a", "c")},
		{Level: 1, Meta: fm(2, "e", "g")},
		{Level: 1, Meta: fm(3, "i", "k")},
	}})
	got := v1.Overlaps(1, []byte("b"), []byte("f"))
	if len(got) != 2 || got[0].Num != 1 || got[1].Num != 2 {
		t.Fatalf("Overlaps = %v", got)
	}
	if got := v1.Overlaps(1, []byte("x"), []byte("z")); len(got) != 0 {
		t.Fatalf("no-overlap case returned %v", got)
	}
	if got := v1.Overlaps(1, []byte("a"), nil); len(got) != 3 {
		t.Fatalf("nil-largest should overlap all: %v", got)
	}
}

func TestFileForKey(t *testing.T) {
	v := &Version{}
	v1, _ := v.Apply(&Edit{Added: []AddedFile{
		{Level: 2, Meta: fm(1, "c", "f")},
		{Level: 2, Meta: fm(2, "j", "n")},
	}})
	if f, _ := v1.FileForKey(2, []byte("k")); f == nil || f.Num != 2 {
		t.Fatalf("FileForKey(k) = %v", f)
	}
	if f, _ := v1.FileForKey(2, []byte("a")); f != nil {
		t.Fatal("key before first file matched")
	}
	if f, _ := v1.FileForKey(2, []byte("h")); f != nil {
		t.Fatal("key in gap matched")
	}
	if f, _ := v1.FileForKey(2, []byte("z")); f != nil {
		t.Fatal("key after last file matched")
	}
	if f, _ := v1.FileForKey(3, []byte("k")); f != nil {
		t.Fatal("empty level matched")
	}
}

func TestSetCreateRecover(t *testing.T) {
	fs := newFS()
	s, err := Create(fs)
	if err != nil {
		t.Fatal(err)
	}
	n1 := s.AllocFileNum()
	if err := s.LogAndApply(&Edit{Added: []AddedFile{{Level: 0, Meta: fm(n1, "a", "m")}}}); err != nil {
		t.Fatal(err)
	}
	n2 := s.AllocFileNum()
	if err := s.LogAndApply(&Edit{
		Added:   []AddedFile{{Level: 1, Meta: fm(n2, "a", "m")}},
		Deleted: []DeletedFile{{Level: 0, Num: n1}},
	}); err != nil {
		t.Fatal(err)
	}
	s.MarkSeq(777)
	seq := uint64(777)
	if err := s.LogAndApply(&Edit{LastSeq: &seq}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Current().NumFiles(0) != 0 || r.Current().NumFiles(1) != 1 {
		t.Fatalf("recovered layout:\n%s", r.Current().DebugString())
	}
	if r.Current().Files[1][0].Num != n2 {
		t.Fatalf("recovered file num %d, want %d", r.Current().Files[1][0].Num, n2)
	}
	if r.LastSeq != 777 {
		t.Fatalf("recovered LastSeq = %d", r.LastSeq)
	}
	if r.NextFileNum <= n2 {
		t.Fatalf("recovered NextFileNum = %d not past %d", r.NextFileNum, n2)
	}
}

// TestLoadReadsOnly checks that Load returns the state Recover would
// install while leaving the directory as it found it: no new MANIFEST,
// no rewritten CURRENT.
func TestLoadReadsOnly(t *testing.T) {
	fs := newFS()
	s, _ := Create(fs)
	n1 := s.AllocFileNum()
	s.LogAndApply(&Edit{Added: []AddedFile{{Level: 0, Meta: fm(n1, "a", "b")}}})
	n2 := s.AllocFileNum()
	s.LogAndApply(&Edit{Added: []AddedFile{{Level: 1, Meta: fm(n2, "a", "b")}}, Deleted: []DeletedFile{{Level: 0, Num: n1}}})
	want := fmt.Sprintf("%d %d %d\n%s", s.NextFileNum, s.LastSeq, s.LogNum, s.Current().DebugString())
	s.Close()
	names, _ := fs.List()
	size, _ := fs.Size(ManifestName(1))

	st, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%d %d %d\n%s", st.NextFileNum, st.LastSeq, st.LogNum, st.Current().DebugString()); got != want {
		t.Fatalf("Load = %q, want %q", got, want)
	}
	if st.ManifestNum() != 1 {
		t.Fatalf("Load read MANIFEST %d, want 1", st.ManifestNum())
	}
	after, _ := fs.List()
	afterSize, _ := fs.Size(ManifestName(1))
	if fmt.Sprint(after) != fmt.Sprint(names) || afterSize != size {
		t.Fatalf("Load changed the directory: %v (%d B) -> %v (%d B)", names, size, after, afterSize)
	}
}

func TestRecoverContinuesAppending(t *testing.T) {
	fs := newFS()
	s, _ := Create(fs)
	n1 := s.AllocFileNum()
	s.LogAndApply(&Edit{Added: []AddedFile{{Level: 0, Meta: fm(n1, "a", "b")}}})
	s.Close()

	r, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	n2 := r.AllocFileNum()
	if err := r.LogAndApply(&Edit{Added: []AddedFile{{Level: 0, Meta: fm(n2, "c", "d")}}}); err != nil {
		t.Fatalf("append after recover: %v", err)
	}
	r.Close()

	r2, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Current().NumFiles(0) != 2 {
		t.Fatalf("second recovery sees %d L0 files, want 2", r2.Current().NumFiles(0))
	}
}

func TestLiveFileNums(t *testing.T) {
	fs := newFS()
	s, _ := Create(fs)
	n := s.AllocFileNum()
	s.LogAndApply(&Edit{Added: []AddedFile{{Level: 0, Meta: fm(n, "a", "b")}}})
	live := s.LiveFileNums()
	if !live[n] || len(live) != 1 {
		t.Fatalf("live = %v", live)
	}
	s.Close()
}

func TestParseName(t *testing.T) {
	cases := []struct {
		name string
		typ  FileType
		num  uint64
	}{
		{"000042.sst", TypeSST, 42},
		{"000007.log", TypeWAL, 7},
		{"MANIFEST-000001", TypeManifest, 1},
		{"CURRENT", TypeCurrent, 0},
		{"garbage", TypeUnknown, 0},
		{"x.sst", TypeUnknown, 0},
		{"MANIFEST-abc", TypeUnknown, 0},
	}
	for _, c := range cases {
		typ, num := ParseName(c.name)
		if typ != c.typ || num != c.num {
			t.Errorf("ParseName(%q) = %v, %d", c.name, typ, num)
		}
	}
	// Round-trip of the generators.
	if SSTName(42) != "000042.sst" || WALName(7) != "000007.log" || ManifestName(1) != "MANIFEST-000001" {
		t.Fatal("name generators changed format")
	}
}

func TestContainsUserKey(t *testing.T) {
	f := fm(1, "c", "f")
	for _, c := range []struct {
		k  string
		in bool
	}{{"c", true}, {"d", true}, {"f", true}, {"b", false}, {"g", false}} {
		if got := f.ContainsUserKey([]byte(c.k)); got != c.in {
			t.Errorf("ContainsUserKey(%q) = %v", c.k, got)
		}
	}
}
