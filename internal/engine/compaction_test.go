package engine

import (
	"math/rand"
	"testing"
	"time"

	"xpointdb/internal/events"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
)

// waitForLevel blocks until level holds want files (background
// compaction runs asynchronously after the trigger).
func waitForLevel(t *testing.T, db *DB, level, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.NumLevelFiles(level) != want {
		if time.Now().After(deadline) {
			t.Fatalf("L%d never reached %d files:\n%s", level, want, db.DebugLayout())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTrivialMoveZeroIO pins the acceptance criterion for trivial
// moves: a single L0 file with no next-level overlap is re-linked to
// L1 by a pure manifest edit — the data bytes are never read or
// rewritten.
func TestTrivialMoveZeroIO(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.L0CompactionTrigger = 1 // one flushed file immediately triggers
	})
	defer db.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// The single L0 file has nothing below it: the picker must choose a
	// trivial move into L1.
	waitForLevel(t, db, 0, 0)
	waitForLevel(t, db, 1, 1)

	m := db.Metrics()
	// The job bumps its counters after the edit that made the move
	// visible above, so give it a moment.
	for deadline := time.Now().Add(5 * time.Second); m.TrivialMoves.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := m.TrivialMoves.Load(); got == 0 {
		t.Fatalf("TrivialMoves = 0 after L0→L1 move:\n%s", db.DebugLayout())
	}
	var r, w int64
	for _, l := range db.LevelStats().Levels[1:] {
		r, w = r+l.BytesRead, w+l.BytesWritten
	}
	if r != 0 || w != 0 {
		t.Fatalf("trivial move did data I/O: read=%d written=%d", r, w)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d after trivial move: %v", i, err)
		}
	}
}

// TestSubcompactionsCorrectness runs a manual full compaction with the
// K-way fan-out enabled and checks both that the fan-out actually
// happened and that every key survives the multi-range atomic install.
func TestSubcompactionsCorrectness(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
		o.TargetFileSize = 16 << 10
		o.BaseLevelBytes = 1 << 30 // background size-compactions stay out
		o.L0CompactionTrigger = 100
		o.MaxSubcompactions = 4
	})
	defer db.Close()

	// Sequential fill: each flushed L0 file covers a distinct key range,
	// giving the splitter distinct file boundaries to cut at.
	const n = 3000
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatalf("CompactRange: %v", err)
	}
	if l0 := db.NumLevelFiles(0); l0 != 0 {
		t.Fatalf("L0 still has %d files:\n%s", l0, db.DebugLayout())
	}
	if got := db.Metrics().Subcompactions.Load(); got < 2 {
		t.Fatalf("Subcompactions = %d, want >= 2 (fan-out never engaged):\n%s",
			got, db.DebugLayout())
	}
	for i := 0; i < n; i++ {
		v, err := db.Get(testKey(i))
		if err != nil {
			t.Fatalf("Get %d after sub-compacted CompactRange: %v", i, err)
		}
		if string(v) != string(testValue(i)) {
			t.Fatalf("Get %d = %q, want %q", i, v, testValue(i))
		}
	}
}

// TestSubcompactionsMatchSingleLane compacts the same dataset with the
// fan-out on and off and checks the resulting trees agree key-for-key
// (including deletes landing inside sub-range interiors).
func TestSubcompactionsMatchSingleLane(t *testing.T) {
	build := func(maxSub int) *DB {
		db, _ := newTestDB(t, func(o *Options) {
			o.MemtableSize = 16 << 10
			o.TargetFileSize = 16 << 10
			o.BaseLevelBytes = 1 << 30
			o.L0CompactionTrigger = 100
			o.MaxSubcompactions = maxSub
		})
		for i := 0; i < 2000; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i += 3 {
			if err := db.Delete(testKey(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
		return db
	}
	one := build(1)
	defer one.Close()
	four := build(4)
	defer four.Close()

	for i := 0; i < 2000; i++ {
		v1, err1 := one.Get(testKey(i))
		v4, err4 := four.Get(testKey(i))
		if (err1 == nil) != (err4 == nil) {
			t.Fatalf("key %d: single-lane err=%v, fan-out err=%v", i, err1, err4)
		}
		if err1 == nil && string(v1) != string(v4) {
			t.Fatalf("key %d: single-lane %q, fan-out %q", i, v1, v4)
		}
	}
}

// fileMetaForRange builds a FileMeta spanning [lo, hi] user keys.
func fileMetaForRange(num uint64, lo, hi string) *manifest.FileMeta {
	return &manifest.FileMeta{
		Num:      num,
		Size:     1 << 20,
		Smallest: keys.Make([]byte(lo), 1, keys.KindSet),
		Largest:  keys.Make([]byte(hi), 1, keys.KindSet),
	}
}

// TestSplitSubranges pins the splitter's contract: ranges are disjoint
// and ascending, cuts happen only at participating files' smallest
// keys, every file lands in every range it overlaps, and the range
// count respects MaxSubcompactions.
func TestSplitSubranges(t *testing.T) {
	inputs := []*manifest.FileMeta{
		fileMetaForRange(1, "a", "d"),
		fileMetaForRange(2, "e", "h"),
		fileMetaForRange(3, "i", "l"),
	}
	overlaps := []*manifest.FileMeta{
		fileMetaForRange(4, "a", "f"),
		fileMetaForRange(5, "g", "m"),
	}
	c := &compaction{level: 1, outputLevel: 2, inputs: inputs, overlaps: overlaps}

	for _, maxSub := range []int{1, 2, 4, 8} {
		subs := splitSubranges(c, maxSub)
		if len(subs) == 0 {
			t.Fatalf("maxSub=%d: no subranges", maxSub)
		}
		if len(subs) > maxSub {
			t.Fatalf("maxSub=%d: %d subranges", maxSub, len(subs))
		}
		// First range starts open, last ends open, boundaries chain.
		if subs[0].start != nil || subs[len(subs)-1].end != nil {
			t.Fatalf("maxSub=%d: outer bounds not open: %+v", maxSub, subs)
		}
		seen := map[uint64]int{}
		for i, s := range subs {
			if i > 0 {
				if string(subs[i-1].end) != string(s.start) {
					t.Fatalf("maxSub=%d: gap between ranges %d and %d", maxSub, i-1, i)
				}
			}
			if len(s.inputs) == 0 {
				t.Fatalf("maxSub=%d: empty range %d kept", maxSub, i)
			}
			for _, f := range s.inputs {
				seen[f.Num]++
				// The file must genuinely overlap [start, end).
				if s.end != nil && string(keys.UserKey(f.Smallest)) >= string(s.end) {
					t.Fatalf("maxSub=%d: file %d below range %d", maxSub, f.Num, i)
				}
				if s.start != nil && string(keys.UserKey(f.Largest)) < string(s.start) {
					t.Fatalf("maxSub=%d: file %d above range %d", maxSub, f.Num, i)
				}
			}
		}
		// Every participating file appears somewhere.
		for _, f := range append(append([]*manifest.FileMeta{}, inputs...), overlaps...) {
			if seen[f.Num] == 0 {
				t.Fatalf("maxSub=%d: file %d in no range", maxSub, f.Num)
			}
		}
		// maxSub=1 degenerates to the single full-range pass.
		if maxSub == 1 && len(subs) != 1 {
			t.Fatalf("maxSub=1 produced %d ranges", len(subs))
		}
	}
}

// TestSplitSubrangesKeyDisjointness feeds every sub-range boundary a
// probe key and checks exactly one range claims each user key — the
// invariant that keeps all versions of a key in one merge loop.
func TestSplitSubrangesKeyDisjointness(t *testing.T) {
	c := &compaction{
		level:       1,
		outputLevel: 2,
		inputs: []*manifest.FileMeta{
			fileMetaForRange(1, "b", "f"),
			fileMetaForRange(2, "g", "k"),
			fileMetaForRange(3, "l", "p"),
			fileMetaForRange(4, "q", "v"),
		},
	}
	subs := splitSubranges(c, 4)
	if len(subs) < 2 {
		t.Fatalf("expected a real split, got %d ranges", len(subs))
	}
	for _, probe := range []string{"a", "b", "g", "h", "l", "q", "z"} {
		claims := 0
		for _, s := range subs {
			if s.start != nil && probe < string(s.start) {
				continue
			}
			if s.end != nil && probe >= string(s.end) {
				continue
			}
			claims++
		}
		if claims != 1 {
			t.Fatalf("key %q claimed by %d ranges, want exactly 1", probe, claims)
		}
	}
}

// TestPickerCursorSurvivesFileChange pins the round-robin fix: the
// cursor is a key, not an index, so it keeps rotating correctly while
// the level's file set changes underneath it.
func TestPickerCursorSurvivesFileChange(t *testing.T) {
	opts := DefaultOptions(nil)
	p := newCompactionPicker(&opts)

	files := []*manifest.FileMeta{
		fileMetaForRange(1, "a", "c"),
		fileMetaForRange(2, "d", "f"),
		fileMetaForRange(3, "g", "i"),
	}
	v := &manifest.Version{}
	v.Files[1] = files

	if got := p.nextAtLevel(v, 1); got != files[0] {
		t.Fatalf("fresh cursor picked file %d, want 1", got.Num)
	}
	p.noteCompacted(&compaction{level: 1, inputs: files[0:1]})
	if got := p.nextAtLevel(v, 1); got != files[1] {
		t.Fatalf("after compacting file 1, picked %d, want 2", got.Num)
	}

	// File 2 disappears (compacted away); the key cursor still lands on
	// the next file past it instead of indexing a stale slot.
	p.noteCompacted(&compaction{level: 1, inputs: files[1:2]})
	v2 := &manifest.Version{}
	v2.Files[1] = []*manifest.FileMeta{files[0], files[2]}
	if got := p.nextAtLevel(v2, 1); got != files[2] {
		t.Fatalf("after file 2 vanished, picked %d, want 3", got.Num)
	}

	// Past the end: wraps to the first file.
	p.noteCompacted(&compaction{level: 1, inputs: files[2:3]})
	if got := p.nextAtLevel(v2, 1); got != files[0] {
		t.Fatalf("wrap-around picked %d, want 1", got.Num)
	}
}

// TestCompactionDeferredEvent squeezes the space budget so a triggered
// L0 compaction cannot reserve its projected output: the job must
// defer (never fail), emit a compaction_deferred event, and complete
// once the operator grows the budget.
func TestCompactionDeferredEvent(t *testing.T) {
	var buf events.Buffer
	db, _ := newTestDB(t, func(o *Options) {
		// The default 64 KiB memtable holds a whole 100-key batch, so
		// each Flush lands exactly one L0 file and the trigger fires
		// only at the third — after the squeeze below is in place.
		o.BaseLevelBytes = 1 << 30
		o.L0CompactionTrigger = 3
		o.MaxAllowedSpace = 1 << 30
		o.EventListener = &buf
	})
	defer db.Close()

	// Incompressible values keep the flushed SST sizes close to the
	// memtable bytes, so the budget arithmetic below holds.
	rng := rand.New(rand.NewSource(42))
	val := func() []byte {
		v := make([]byte, 100)
		rng.Read(v)
		return v
	}
	fill := func(base int) {
		for i := 0; i < 100; i++ {
			if err := db.Put(testKey(base+i), val()); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(0)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(100)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Third batch: leave the flush just enough headroom, so the flush
	// lands its L0 file but the compaction it triggers (projected ≈ the
	// three files' bytes) overruns and defers.
	fill(200)
	sm := db.Shared().Space
	if sm == nil {
		t.Fatal("Shared().Space = nil with MaxAllowedSpace set")
	}
	// Settle pending obsolete-file deletion first: a stale WAL still
	// counted in Used() here would be freed later and hand the
	// compaction exactly the headroom this squeeze is denying it.
	db.deleteObsoleteFiles()
	sm.SetBudget(sm.Used() + sm.Reserved() + 20<<10)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && db.Metrics().SpaceDeferrals.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if db.Metrics().SpaceDeferrals.Load() == 0 {
		t.Fatalf("compaction over budget did not defer:\n%s", db.DebugLayout())
	}
	requireEventKinds(t, db, &buf, events.KindCompactionDeferred)
	for _, e := range buf.Events() {
		if e.Kind == events.KindCompactionDeferred && (e.Compaction == nil || e.Compaction.BytesRead <= 0) {
			t.Fatalf("deferred event missing projected bytes: %+v", e)
		}
	}

	// Budget grows; the deferred job resumes and drains L0.
	sm.SetBudget(1 << 30)
	waitForLevel(t, db, 0, 0)
	// The job installs its version (emptying L0) before it counts
	// itself in Metrics.CompactionLatency.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && db.Metrics().CompactionLatency.Count() == 0 {
		time.Sleep(time.Millisecond)
	}
	if db.Metrics().CompactionLatency.Count() == 0 {
		t.Fatal("compaction never completed after budget raise")
	}
}
