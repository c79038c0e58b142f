package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"xpointdb/internal/clock"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

func newFS() *vfs.MemFS {
	return vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
}

func writeRecords(t *testing.T, recs [][]byte) (*vfs.MemFS, string) {
	t.Helper()
	fs := newFS()
	f, err := fs.Create("test.log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for _, rec := range recs {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return fs, "test.log"
}

func readAll(t *testing.T, fs *vfs.MemFS, name string) ([][]byte, error) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := NewReader(f)
	var out [][]byte
	for {
		rec, err := r.ReadRecord()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func TestRoundTripSmall(t *testing.T) {
	recs := [][]byte{[]byte("hello"), []byte("world"), {}, []byte("x")}
	fs, name := writeRecords(t, recs)
	got, err := readAll(t, fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
}

func TestRoundTripLargeRecordsSpanBlocks(t *testing.T) {
	recs := [][]byte{
		bytes.Repeat([]byte("a"), BlockSize/2),
		bytes.Repeat([]byte("b"), BlockSize),     // spans 2 blocks
		bytes.Repeat([]byte("c"), 3*BlockSize+5), // spans 4 blocks
		[]byte("tail"),
	}
	fs, name := writeRecords(t, recs)
	got, err := readAll(t, fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch (len %d vs %d)", i, len(got[i]), len(recs[i]))
		}
	}
}

func TestBlockBoundaryPadding(t *testing.T) {
	// A record sized to leave <7 bytes in the block forces padding.
	rec1 := bytes.Repeat([]byte("p"), BlockSize-headerSize-3)
	recs := [][]byte{rec1, []byte("next-block")}
	fs, name := writeRecords(t, recs)
	got, err := readAll(t, fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[1], []byte("next-block")) {
		t.Fatalf("padding handling broken: %d records", len(got))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		fs := newFS()
		fl, _ := fs.Create("p.log")
		w := NewWriter(fl)
		for _, rec := range recs {
			if err := w.AddRecord(rec); err != nil {
				return false
			}
		}
		w.Sync()
		fl.Close()

		rf, _ := fs.Open("p.log")
		r := NewReader(rf)
		for _, want := range recs {
			got, err := r.ReadRecord()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := r.ReadRecord()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailDetected(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create("t.log")
	w := NewWriter(f)
	w.AddRecord([]byte("complete-record"))
	w.Sync()
	// Append a record but only sync part of it by crashing.
	w.AddRecord(bytes.Repeat([]byte("x"), 100))
	// No sync: CrashClone drops it entirely (clean EOF)...
	crashed := fs.CrashClone()
	got, err := readAll(t, crashed, "t.log")
	if err != nil {
		t.Fatalf("clean truncation must read as EOF, got %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d records, want 1", len(got))
	}
}

func TestCorruptRecordStopsRead(t *testing.T) {
	fs, name := writeRecords(t, [][]byte{[]byte("one"), []byte("two")})
	// Flip a payload byte of the first record.
	f, _ := fs.Open(name)
	var buf [1]byte
	f.ReadAt(buf[:], headerSize) // first payload byte
	// MemFS has no WriteAt; corrupt by rebuilding the file.
	raw := make([]byte, 1024)
	n, _ := f.ReadAt(raw, 0)
	raw = raw[:n]
	raw[headerSize] ^= 0xFF
	f.Close()
	fs.Remove(name)
	nf, _ := fs.Create(name)
	nf.Write(raw)
	nf.Sync()
	nf.Close()

	_, err := readAll(t, fs, name)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestManySmallRecords(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 5000; i++ {
		recs = append(recs, []byte(fmt.Sprintf("record-%06d", i)))
	}
	fs, name := writeRecords(t, recs)
	got, err := readAll(t, fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d of %d", len(got), len(recs))
	}
}

func TestReaderOffsetTracksFileEnd(t *testing.T) {
	fs, name := writeRecords(t, [][]byte{[]byte("abc")})
	f, _ := fs.Open(name)
	r := NewReader(f)
	for {
		if _, err := r.ReadRecord(); err != nil {
			break
		}
	}
	size, _ := fs.Size(name)
	if r.Offset() != size {
		t.Fatalf("Offset = %d, file size %d", r.Offset(), size)
	}
}

// rewrite replaces name's contents with raw.
func rewrite(t *testing.T, fs *vfs.MemFS, name string, raw []byte) {
	t.Helper()
	fs.Remove(name)
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(raw)
	f.Sync()
	f.Close()
}

// TestReplayEnds pins the end-of-log rule: Replay delivers every good
// record, then reports a clean end (the log read to EOF, or cut at a
// record boundary as in TestTornTailDetected), a torn tail (the log
// ends mid-record) or a corrupt record (as in
// TestCorruptRecordStopsRead) as torn, with no error.
func TestReplayEnds(t *testing.T) {
	recs := [][]byte{[]byte("one"), []byte("two"), bytes.Repeat([]byte("x"), 100)}
	fs, name := writeRecords(t, recs)
	f, _ := fs.Open(name)
	raw := make([]byte, 1024)
	n, _ := f.ReadAt(raw, 0)
	f.Close()
	raw = raw[:n]
	third := 2*headerSize + len("one") + len("two") // offset of the third record

	corrupt := append([]byte(nil), raw...)
	corrupt[third+headerSize] ^= 0xFF
	cases := []struct {
		name string
		raw  []byte
		want int
		torn bool
	}{
		{"clean", raw, 3, false},
		{"cut_at_boundary", raw[:third], 2, false},
		{"torn_tail", raw[:n-3], 2, true},
		{"corrupt_record", corrupt, 2, true},
	}
	for _, c := range cases {
		rewrite(t, fs, name, c.raw)
		f, _ := fs.Open(name)
		var got int
		torn, err := Replay(f, func(rec []byte) error {
			if !bytes.Equal(rec, recs[got]) {
				t.Errorf("%s: record %d = %q, want %q", c.name, got, rec, recs[got])
			}
			got++
			return nil
		})
		f.Close()
		if err != nil || torn != c.torn || got != c.want {
			t.Errorf("%s: Replay = %d records, torn %v, err %v; want %d, torn %v", c.name, got, torn, err, c.want, c.torn)
		}
	}

	// An error from fn stops the replay and is returned.
	rewrite(t, fs, name, raw)
	f, _ = fs.Open(name)
	defer f.Close()
	stop := errors.New("stop")
	if _, err := Replay(f, func([]byte) error { return stop }); err != stop {
		t.Fatalf("Replay returned %v, want fn's error", err)
	}
}
