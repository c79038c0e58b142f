package faultfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

func newTestFS(t *testing.T, seed int64) (*FS, *vfs.MemFS) {
	t.Helper()
	mem := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	f, err := New(mem, clock.Real{}, seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f, mem
}

func writeFile(t *testing.T, fs vfs.FS, name string, data []byte, sync bool) {
	t.Helper()
	h, err := fs.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := h.Write(data); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if sync {
		if err := h.Sync(); err != nil {
			t.Fatalf("sync %s: %v", name, err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

func readFile(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	size, err := fs.Size(name)
	if err != nil {
		t.Fatalf("size %s: %v", name, err)
	}
	h, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer h.Close()
	data := make([]byte, size)
	if size > 0 {
		if _, err := h.ReadAt(data, 0); err != nil && err != io.EOF {
			t.Fatalf("read %s: %v", name, err)
		}
	}
	return data
}

func TestRuleByOpAndPath(t *testing.T) {
	f, _ := newTestFS(t, 1)
	r := f.AddRule(Rule{Ops: []Op{OpCreate}, Path: "*.log"})

	if _, err := f.Create("000001.log"); !errors.Is(err, ErrInjected) {
		t.Fatalf("create .log: want ErrInjected, got %v", err)
	}
	if _, err := f.Create("000002.sst"); err != nil {
		t.Fatalf("create .sst should pass: %v", err)
	}
	// Other ops on matching paths are untouched.
	writeFile(t, f, "000003.sst", []byte("x"), true)
	if got := r.Fired(); got != 1 {
		t.Fatalf("fired = %d, want 1", got)
	}
}

func TestRuleCountAndAfter(t *testing.T) {
	f, _ := newTestFS(t, 1)
	f.AddRule(Rule{Ops: []Op{OpCreate}, After: 1, Count: 2})

	var errs []error
	for i := 0; i < 4; i++ {
		_, err := f.Create("f")
		errs = append(errs, err)
	}
	want := []bool{false, true, true, false} // skip 1, fire 2, exhausted
	for i, e := range errs {
		if (e != nil) != want[i] {
			t.Fatalf("create #%d: err=%v, want injected=%v", i, e, want[i])
		}
	}
}

func TestRuleProbSeeded(t *testing.T) {
	// With a fixed seed the fire pattern is reproducible and the rate
	// is roughly Prob.
	fired := func(seed int64) (int, string) {
		f, _ := newTestFS(t, seed)
		f.AddRule(Rule{Ops: []Op{OpCreate}, Prob: 0.3})
		n, pattern := 0, make([]byte, 0, 100)
		for i := 0; i < 100; i++ {
			if _, err := f.Create("f"); err != nil {
				n++
				pattern = append(pattern, '1')
			} else {
				pattern = append(pattern, '0')
			}
		}
		return n, string(pattern)
	}
	n1, p1 := fired(42)
	n2, p2 := fired(42)
	if p1 != p2 {
		t.Fatalf("same seed produced different fire patterns")
	}
	if n1 != n2 || n1 < 10 || n1 > 60 {
		t.Fatalf("fire count %d implausible for p=0.3 over 100 ops", n1)
	}
	_, p3 := fired(43)
	if p1 == p3 {
		t.Fatalf("different seeds produced identical fire patterns")
	}
}

func TestCustomError(t *testing.T) {
	f, _ := newTestFS(t, 1)
	sentinel := errors.New("disk on fire")
	f.AddRule(Rule{Ops: []Op{OpSync}, Fault: Fault{Err: sentinel}})
	h, err := f.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); !errors.Is(err, sentinel) {
		t.Fatalf("sync: want sentinel, got %v", err)
	}
}

func TestLatencyOnly(t *testing.T) {
	f, _ := newTestFS(t, 1)
	f.AddRule(Rule{Ops: []Op{OpWrite}, Fault: Fault{Latency: 10 * time.Millisecond}})
	h, err := f.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := h.Write([]byte("hello")); err != nil {
		t.Fatalf("latency-only fault must not fail the op: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("write returned after %v, want ≥10ms of injected latency", d)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	h.Close()
	if got := readFile(t, f, "f"); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("data = %q", got)
	}
}

func TestTornWrite(t *testing.T) {
	f, mem := newTestFS(t, 7)
	f.AddRule(Rule{Ops: []Op{OpWrite}, Count: 1, Fault: Fault{Torn: true}})
	h, err := f.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abcdefgh"), 64)
	if _, err := h.Write(payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: want ErrInjected, got %v", err)
	}
	h.Close()
	// The inner fs holds a strict prefix of the payload.
	size, err := mem.Size("f")
	if err != nil {
		t.Fatal(err)
	}
	if size >= int64(len(payload)) {
		t.Fatalf("torn write persisted %d bytes, want < %d", size, len(payload))
	}
	got := readFile(t, mem, "f")
	if !bytes.Equal(got, payload[:size]) {
		t.Fatalf("persisted bytes are not a prefix of the payload")
	}
	// The shadow agrees, so snapshots see the torn state.
	snap := f.Snapshot()
	if snap.TotalBytes("f") != size {
		t.Fatalf("shadow bytes %d != inner size %d", snap.TotalBytes("f"), size)
	}
}

func TestSnapshotMaterializeClean(t *testing.T) {
	f, _ := newTestFS(t, 1)
	writeFile(t, f, "a", []byte("durable"), true)
	h, err := f.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("synced-part")); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	h.Close()

	snap := f.Snapshot()
	dev := storage.New(clock.Real{}, storage.Null())
	out, err := snap.Materialize(dev, rand.New(rand.NewSource(1)), CrashOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, out, "a"); !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("a = %q", got)
	}
	if got := readFile(t, out, "b"); !bytes.Equal(got, []byte("synced-part")) {
		t.Fatalf("clean crash must drop unsynced tail; b = %q", got)
	}
}

func TestSnapshotMaterializePartialAndTorn(t *testing.T) {
	f, _ := newTestFS(t, 1)
	synced := bytes.Repeat([]byte("S"), 100)
	dirty := bytes.Repeat([]byte("D"), 100)
	h, err := f.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	h.Write(synced)
	h.Sync()
	h.Write(dirty)
	h.Close()
	snap := f.Snapshot()

	for seed := int64(0); seed < 20; seed++ {
		dev := storage.New(clock.Real{}, storage.Null())
		out, err := snap.Materialize(dev, rand.New(rand.NewSource(seed)),
			CrashOpts{KeepUnsynced: true, Torn: true})
		if err != nil {
			t.Fatal(err)
		}
		got := readFile(t, out, "f")
		if len(got) < 100 || len(got) > 200 {
			t.Fatalf("seed %d: surviving size %d outside [100,200]", seed, len(got))
		}
		// Synced prefix is sacrosanct — bit flips may only touch the
		// surviving unsynced region.
		if !bytes.Equal(got[:100], synced) {
			t.Fatalf("seed %d: synced prefix corrupted", seed)
		}
	}
}

func TestArmCrashFreezesState(t *testing.T) {
	f, _ := newTestFS(t, 1)
	writeFile(t, f, "before", []byte("old"), true)
	f.ArmCrash(2) // capture at the start of the 2nd op from now
	if f.Crashed() {
		t.Fatal("crashed before reaching the armed op")
	}
	writeFile(t, f, "after", []byte("new"), true) // create+write+sync+close ≥ 2 ops
	if !f.Crashed() {
		t.Fatal("armed crash did not trigger")
	}
	snap := f.CrashSnapshot()
	if snap == nil {
		t.Fatal("nil crash snapshot")
	}
	// "after" had not been durably written when the snapshot fired:
	// at most its create (op 1) and part of the write happened.
	if snap.SyncedBytes("after") != 0 {
		t.Fatalf("after synced=%d in crash snapshot, want 0", snap.SyncedBytes("after"))
	}
	if snap.SyncedBytes("before") != 3 {
		t.Fatalf("before synced=%d, want 3", snap.SyncedBytes("before"))
	}
	// Later ops must not mutate the frozen snapshot.
	writeFile(t, f, "before", []byte("overwritten-much-longer"), true)
	if snap.SyncedBytes("before") != 3 {
		t.Fatal("crash snapshot mutated by post-crash ops")
	}
}

func TestEagerHydration(t *testing.T) {
	mem := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	writeFile(t, mem, "preexisting", []byte("hello"), true)
	f, err := New(mem, clock.Real{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Never opened through the wrapper, yet present and fully synced
	// in a snapshot.
	snap := f.Snapshot()
	if snap.SyncedBytes("preexisting") != 5 {
		t.Fatalf("preexisting synced=%d, want 5", snap.SyncedBytes("preexisting"))
	}
	dev := storage.New(clock.Real{}, storage.Null())
	out, err := snap.Materialize(dev, rand.New(rand.NewSource(1)), CrashOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, out, "preexisting"); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("preexisting = %q", got)
	}
}

func TestRenameMovesShadow(t *testing.T) {
	f, _ := newTestFS(t, 1)
	writeFile(t, f, "tmp", []byte("payload"), true)
	if err := f.Rename("tmp", "final"); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	if snap.SyncedBytes("final") != 7 {
		t.Fatalf("final synced=%d, want 7", snap.SyncedBytes("final"))
	}
	if snap.TotalBytes("tmp") != 0 {
		t.Fatal("old name still present in snapshot")
	}
	if err := f.Remove("final"); err != nil {
		t.Fatal(err)
	}
	if n := len(f.Snapshot().Files()); n != 0 {
		t.Fatalf("files after remove = %d, want 0", n)
	}
}

func TestSyncAdvancesWatermark(t *testing.T) {
	f, _ := newTestFS(t, 1)
	h, err := f.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte("1234"))
	if s := f.Snapshot(); s.SyncedBytes("f") != 0 {
		t.Fatalf("pre-sync synced=%d", s.SyncedBytes("f"))
	}
	h.Sync()
	if s := f.Snapshot(); s.SyncedBytes("f") != 4 {
		t.Fatalf("post-sync synced=%d, want 4", s.SyncedBytes("f"))
	}
	h.Write([]byte("56"))
	if s := f.Snapshot(); s.SyncedBytes("f") != 4 || s.TotalBytes("f") != 6 {
		t.Fatalf("after more writes: synced=%d total=%d", s.SyncedBytes("f"), s.TotalBytes("f"))
	}
	h.Close()
}
