package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xpointdb/internal/engine"
	"xpointdb/internal/kvstore"
	"xpointdb/internal/manifest"
	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

func openDB(t *testing.T, dir string) *engine.DB {
	t.Helper()
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(engine.DefaultOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }

// putRange writes keys [from, to) with a value derived from the key.
func putRange(t *testing.T, db *engine.DB, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := db.Put(key(i), bytes.Repeat(key(i), 8)); err != nil {
			t.Fatal(err)
		}
	}
}

// closedStore builds a store with one flushed SST and one WAL holding
// unflushed writes, then closes it.
func closedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db := openDB(t, dir)
	putRange(t, db, 0, 200)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	putRange(t, db, 200, 250)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// firstOf returns the first file in dir of type typ.
func firstOf(t *testing.T, dir string, typ manifest.FileType) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if got, _ := manifest.ParseName(e.Name()); got == typ {
			return e.Name()
		}
	}
	t.Fatalf("no file of type %d in %s", typ, dir)
	return ""
}

// snapshot renders every file of dir as name, size and content hash.
func snapshot(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", e.Name(), len(data), sha256.Sum256(data))
	}
	return b.String()
}

func xpdump(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// TestModesLeaveStoreUntouched runs every mode against a closed store
// and requires the directory to be byte-identical afterwards: the same
// names, sizes and contents, CURRENT and the MANIFEST included.
func TestModesLeaveStoreUntouched(t *testing.T) {
	dir := closedStore(t)
	sst := firstOf(t, dir, manifest.TypeSST)
	log := firstOf(t, dir, manifest.TypeWAL)
	mf := firstOf(t, dir, manifest.TypeManifest)
	modes := []struct {
		args []string
		want string
	}{
		{[]string{"-db", dir}, "live version"},
		{[]string{"-db", dir, "-file", sst}, "entries"},
		{[]string{"-db", dir, "-file", sst, "-keys"}, "range:"},
		{[]string{"-db", dir, "-file", sst, "-verify"}, "matches MANIFEST"},
		{[]string{"-db", dir, "-file", log}, "batches"},
		{[]string{"-db", dir, "-file", log, "-keys"}, "SET"},
		{[]string{"-db", dir, "-file", mf}, "final version after"},
		{[]string{"-db", dir, "-file", manifest.CurrentName}, "CURRENT -> " + mf},
	}
	before := snapshot(t, dir)
	for _, m := range modes {
		out, err := xpdump(m.args...)
		if err != nil {
			t.Fatalf("xpdump %v: %v", m.args, err)
		}
		if !strings.Contains(out, m.want) {
			t.Errorf("xpdump %v: output lacks %q:\n%s", m.args, m.want, out)
		}
		if after := snapshot(t, dir); after != before {
			t.Fatalf("xpdump %v changed the store:\nbefore:\n%s\nafter:\n%s", m.args, before, after)
		}
	}
}

// TestLiveStoreSurvivesDump runs xpdump against a store an engine has
// open, keeps writing, and requires the store to reopen with every key.
func TestLiveStoreSurvivesDump(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	putRange(t, db, 0, 100)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each mode names the files the directory holds when it runs.
	for _, args := range []func() []string{
		func() []string { return []string{"-db", dir} },
		func() []string { return []string{"-db", dir, "-file", firstOf(t, dir, manifest.TypeSST), "-verify"} },
		func() []string { return []string{"-db", dir, "-file", firstOf(t, dir, manifest.TypeManifest)} },
	} {
		if _, err := xpdump(args()...); err != nil {
			t.Fatalf("xpdump %v on a live store: %v", args(), err)
		}
	}
	putRange(t, db, 100, 200)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openDB(t, dir)
	defer db.Close()
	for i := 0; i < 200; i++ {
		if _, err := db.Get(key(i)); err != nil {
			t.Fatalf("Get(%s) after reopen: %v", key(i), err)
		}
	}
}

// TestVerifyFailures requires -verify to fail on a flipped SST bit and
// on a MANIFEST that cannot be replayed.
func TestVerifyFailures(t *testing.T) {
	t.Run("flipped_sst_bit", func(t *testing.T) {
		dir := closedStore(t)
		sst := firstOf(t, dir, manifest.TypeSST)
		path := filepath.Join(dir, sst)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := xpdump("-db", dir, "-file", sst, "-verify"); err == nil || !strings.Contains(err.Error(), "CORRUPT") {
			t.Fatalf("verify of a flipped bit: err = %v, want CORRUPT", err)
		}
	})
	t.Run("unreplayable_manifest", func(t *testing.T) {
		dir := closedStore(t)
		sst := firstOf(t, dir, manifest.TypeSST)
		fs, err := vfs.NewOS(dir)
		if err != nil {
			t.Fatal(err)
		}
		// A well-framed MANIFEST whose only edit deletes a file no
		// version holds.
		f, err := fs.Create(firstOf(t, dir, manifest.TypeManifest))
		if err != nil {
			t.Fatal(err)
		}
		edit := &manifest.Edit{Deleted: []manifest.DeletedFile{{Level: 1, Num: 999999}}}
		w := wal.NewWriter(f)
		if err := w.AddRecord(edit.Encode()); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := xpdump("-db", dir, "-file", sst, "-verify"); err == nil {
			t.Fatal("verify against an unreplayable MANIFEST succeeded")
		}
	})
}

// TestMissingDirRefused checks that xpdump does not create the -db
// directory it is pointed at.
func TestMissingDirRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	if _, err := xpdump("-db", dir); err == nil {
		t.Fatal("xpdump on a missing directory succeeded")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("xpdump created %s (stat: %v)", dir, err)
	}
}

// TestShardedRoot runs xpdump on the root of a closed 2-shard store:
// the overview reports each shard's files, SSTs and live version, and
// -file reads a shard-NNN/<name> path, -verify included.
func TestShardedRoot(t *testing.T) {
	dir := t.TempDir()
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Keys below key00100 live on shard 0, the rest on shard 1.
	st, err := kvstore.Open(engine.DefaultOptions(fs), 2, [][]byte{key(100)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := st.Put(key(i), bytes.Repeat(key(i), 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := xpdump("-db", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== shard-000/ ==", "== shard-001/ =="} {
		if !strings.Contains(out, want) {
			t.Errorf("overview lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\nlive version"); n != 2 {
		t.Errorf("overview prints %d live versions, want 2:\n%s", n, out)
	}
	if strings.Contains(out, " ? ") || strings.Contains(out, "\n0 SSTs") || strings.Contains(out, "not readable") {
		t.Errorf("overview does not read the shards:\n%s", out)
	}

	sst := "shard-001/" + firstOf(t, filepath.Join(dir, "shard-001"), manifest.TypeSST)
	for _, m := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", dir, "-file", sst}, "100 entries"},
		{[]string{"-db", dir, "-file", sst, "-verify"}, "matches MANIFEST"},
		{[]string{"-db", dir, "-file", "shard-000/" + manifest.CurrentName}, "CURRENT -> MANIFEST-"},
	} {
		out, err := xpdump(m.args...)
		if err != nil {
			t.Fatalf("xpdump %v: %v", m.args, err)
		}
		if !strings.Contains(out, m.want) {
			t.Errorf("xpdump %v: output lacks %q:\n%s", m.args, m.want, out)
		}
	}
}
