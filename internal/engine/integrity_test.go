package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
)

// fillAndFlush writes n keys and flushes them into at least one SST.
func fillAndFlush(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// liveSSTName returns the name of one live SST.
func liveSSTName(t *testing.T, db *DB) string {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.vs.Current()
	for l := 0; l < manifest.NumLevels; l++ {
		for _, f := range v.Files[l] {
			return manifest.SSTName(f.Num)
		}
	}
	t.Fatal("no live SSTs")
	return ""
}

// TestVerifyChecksumCatchesCachedCorruption is the tentpole acceptance
// check: after the block cache has served a key from an SST, silent
// media corruption of that SST is invisible to the read path (the cache
// keeps returning the intact pre-damage copy) but VerifyChecksum —
// which streams the device directly — must detect it and latch the
// corruption for quarantine/repair.
func TestVerifyChecksumCatchesCachedCorruption(t *testing.T) {
	buf := &events.Buffer{}
	db, fs := newTestDB(t, func(o *Options) {
		o.DisableScrub = true
		o.EventListener = buf
	})
	defer db.Close()
	fillAndFlush(t, db, 200)

	// Pull a key through the SST so its block lands in the cache.
	if _, err := db.Get(testKey(7)); err != nil {
		t.Fatalf("Get before corruption: %v", err)
	}
	if err := db.VerifyChecksum(); err != nil {
		t.Fatalf("VerifyChecksum on healthy DB: %v", err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency on healthy DB: %v", err)
	}

	// Silent bitrot in the first data block.
	name := liveSSTName(t, db)
	if err := fs.CorruptBit(name, 3); err != nil {
		t.Fatalf("CorruptBit: %v", err)
	}

	// The cache still serves the pre-damage block: the read path cannot
	// see the rot.
	if v, err := db.Get(testKey(7)); err != nil || string(v) != string(testValue(7)) {
		t.Fatalf("cached Get after corruption = %q, %v; want clean value", v, err)
	}

	err := db.VerifyChecksum()
	if !sstable.IsCorruption(err) {
		t.Fatalf("VerifyChecksum after corruption = %v, want corruption error", err)
	}
	if got := db.metrics.CorruptionsDetected.Load(); got == 0 {
		t.Fatal("CorruptionsDetected = 0 after VerifyChecksum failure")
	}
	// The damaged file is live, so the detection must latch hard, and
	// the latch is what engages the recovery worker's repair.
	waitForEvent(t, db, buf, "an error_recovery_begin event", func(e events.Event) bool {
		return e.Kind == events.KindRecoveryBegin
	})
	latch, begin := -1, -1
	for i, e := range buf.Events() {
		if latch < 0 && e.Kind == events.KindBackgroundError && e.BGError.Op == opCorruption {
			if e.BGError.Severity != SeverityHard.String() {
				t.Fatalf("corruption latched at severity %s, want hard", e.BGError.Severity)
			}
			latch = i
		}
		if begin < 0 && e.Kind == events.KindRecoveryBegin {
			begin = i
		}
	}
	if latch < 0 || latch > begin {
		t.Fatalf("background_error for the corruption at event %d, error_recovery_begin at %d: want the latch first", latch, begin)
	}
}

// TestReadPathCorruptionRepairs exercises the full transient-corruption
// cycle: a bitrotted device read fails the block checksum, the read
// errors (never wrong data), the file is quarantined, and the repair
// compaction — whose re-read sees clean bytes — salvages everything.
func TestReadPathCorruptionRepairs(t *testing.T) {
	buf := &events.Buffer{}
	db, ffs := newFaultTestDB(t, func(o *Options) {
		o.DisableScrub = true
		o.EventListener = buf
	})
	defer db.Close()
	fillAndFlush(t, db, 200)

	// One bitrotted SST read; every retry sees clean bytes.
	ffs.AddRule(faultfs.Rule{
		Ops: []faultfs.Op{faultfs.OpReadAt}, Path: "*.sst", FailNTimes: 1,
		Fault: faultfs.Fault{Bitrot: true},
	})

	// The uncached read hits the rotted block: it must error, not
	// return damaged bytes.
	v, err := db.Get(testKey(42))
	if err == nil {
		if string(v) != string(testValue(42)) {
			t.Fatalf("Get served wrong bytes under bitrot: %q", v)
		}
		// The flipped bit landed outside the probed block: detection
		// will not trigger, nothing further to assert.
		t.Skip("bitrot landed outside the probed read")
	}
	if !sstable.IsCorruption(err) && !errors.Is(err, ErrBackground) {
		t.Fatalf("Get under bitrot = %v, want corruption", err)
	}

	waitHealthy(t, db, 10*time.Second)
	if got := db.metrics.CorruptionsRepaired.Load(); got == 0 {
		t.Fatalf("CorruptionsRepaired = 0 after recovery (quarantined=%d, dataloss=%d)",
			db.metrics.FilesQuarantined.Load(), db.metrics.DataLossEvents.Load())
	}

	// Everything must still be readable and correct post-repair.
	for i := 0; i < 200; i++ {
		v, err := db.Get(testKey(i))
		if err != nil || string(v) != string(testValue(i)) {
			t.Fatalf("Get %d after repair = %q, %v", i, v, err)
		}
	}
	requireEventKinds(t, db, buf, events.KindQuarantine, events.KindRepair)
}

// TestScrubDetectsPersistentCorruption: the scrubber finds silent media
// damage in a cold file with no reads at all; persistent corruption
// cannot be salvaged (every re-read fails), so recovery drops the file
// and reports the precise lost key range in a data_loss event.
func TestScrubDetectsPersistentCorruption(t *testing.T) {
	buf := &events.Buffer{}
	db, fs := newTestDB(t, func(o *Options) {
		o.EventListener = buf
	})
	defer db.Close()
	fillAndFlush(t, db, 200)

	name := liveSSTName(t, db)
	if err := fs.CorruptBit(name, 3); err != nil {
		t.Fatalf("CorruptBit: %v", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for db.metrics.DataLossEvents.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scrub never detected the corruption (passes=%d, detected=%d)",
				db.metrics.ScrubPassLatency.Count(), db.metrics.CorruptionsDetected.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitHealthy(t, db, 10*time.Second)

	// The data_loss event names the affected range; keys outside any
	// lost range must still read correctly. It is emitted before the
	// loss is counted.
	db.SyncEvents()
	lost := lostRanges(buf)
	if len(lost) == 0 {
		t.Fatal("DataLossEvents > 0 but no data_loss event in buffer")
	}
	for i := 0; i < 200; i++ {
		k := testKey(i)
		v, err := db.Get(k)
		if inLostRange(lost, string(k)) {
			continue // any non-crash outcome is acceptable inside the range
		}
		if err != nil || string(v) != string(testValue(i)) {
			t.Fatalf("Get %d outside lost range = %q, %v", i, v, err)
		}
	}
	requireEventKinds(t, db, buf, events.KindScrubCorruption, events.KindQuarantine, events.KindDataLoss)

	// The DB must remain fully usable: writes, flushes and reads.
	for i := 200; i < 250; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put after data loss: %v", err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush after data loss: %v", err)
	}
}

// TestScrubCompletesCleanPass: on a healthy DB the scrubber finishes
// passes and accounts the verified bytes.
func TestScrubCompletesCleanPass(t *testing.T) {
	buf := &events.Buffer{}
	db, _ := newTestDB(t, func(o *Options) {
		o.EventListener = buf
		o.ScrubBytesPerSec = 64 << 20
	})
	defer db.Close()
	fillAndFlush(t, db, 200)

	deadline := time.Now().Add(30 * time.Second)
	for db.metrics.ScrubPassLatency.Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no scrub pass completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if db.metrics.ScrubbedBytes.Load() == 0 {
		t.Fatal("scrub pass completed but ScrubbedBytes = 0")
	}
	if db.metrics.CorruptionsDetected.Load() != 0 {
		t.Fatal("clean DB reported corruption")
	}
	requireEventKinds(t, db, buf, events.KindScrubBegin, events.KindScrubComplete)
}

// TestParanoidFileChecks verifies flush outputs end-to-end before
// install when the option is set, and that a clean build passes.
func TestParanoidFileChecks(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.ParanoidFileChecks = true
		o.DisableScrub = true
	})
	defer db.Close()
	fillAndFlush(t, db, 200)
	for i := 0; i < 200; i++ {
		if v, err := db.Get(testKey(i)); err != nil || string(v) != string(testValue(i)) {
			t.Fatalf("Get %d = %q, %v", i, v, err)
		}
	}
	if err := db.VerifyChecksum(); err != nil {
		t.Fatalf("VerifyChecksum: %v", err)
	}
}

// TestCheckConsistencyCatchesSizeDrift: a live SST whose on-disk size
// disagrees with the manifest is a consistency failure.
func TestCheckConsistencyCatchesSizeDrift(t *testing.T) {
	db, fs := newTestDB(t, func(o *Options) { o.DisableScrub = true })
	defer db.Close()
	fillAndFlush(t, db, 200)

	name := liveSSTName(t, db)
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := f.Write([]byte("trailing garbage")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f.Close()

	if err := db.CheckConsistency(); err == nil {
		t.Fatal("CheckConsistency passed despite size drift")
	}
}

// requireEventKinds fails unless every kind reaches buf.
func requireEventKinds(t *testing.T, db *DB, buf *events.Buffer, kinds ...events.Kind) {
	t.Helper()
	for _, k := range kinds {
		waitForEvent(t, db, buf, fmt.Sprintf("a %s event", k), func(e events.Event) bool { return e.Kind == k })
	}
}

// lostRanges extracts the [smallest, largest] user-key ranges from
// data_loss events.
func lostRanges(buf *events.Buffer) [][2]string {
	var out [][2]string
	for _, e := range buf.Events() {
		if e.Kind == events.KindDataLoss && e.Integrity != nil {
			out = append(out, [2]string{e.Integrity.Smallest, e.Integrity.Largest})
		}
	}
	return out
}

func inLostRange(ranges [][2]string, key string) bool {
	for _, r := range ranges {
		if key >= r[0] && key <= r[1] {
			return true
		}
	}
	return false
}

// TestShortCompactionInputIsCorruption: a compaction input that reads
// back shorter than the MANIFEST says is corruption, not zero padding.
// An earlier compaction leaves windows holding other tables' bytes in
// the free list, so a tail that were not checked would hold valid
// blocks of another file. The job must fail with a CorruptionError
// naming the file, latch, and install nothing.
func TestShortCompactionInputIsCorruption(t *testing.T) {
	buf := &events.Buffer{}
	db, fs := newTestDB(t, func(o *Options) {
		o.DisableScrub = true
		o.EventListener = buf
	})
	defer db.Close()
	fillAndFlush(t, db, 400)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatalf("first CompactRange: %v", err)
	}
	fillAndFlush(t, db, 300)

	db.mu.Lock()
	v := db.vs.Current()
	if len(v.Files[0]) != 1 {
		db.mu.Unlock()
		t.Fatalf("%d L0 files, want 1", len(v.Files[0]))
	}
	victim := v.Files[0][0]
	before := map[uint64]bool{}
	for l := range v.Files {
		for _, f := range v.Files[l] {
			before[f.Num] = true
		}
	}
	db.mu.Unlock()

	// Replace the L0 table with a prefix of its own bytes.
	name := manifest.SSTName(victim.Num)
	rf, _ := fs.Open(name)
	raw := make([]byte, victim.Size)
	if _, err := rf.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	wf, _ := fs.Create(name)
	wf.Write(raw[:victim.Size/2])
	wf.Sync()
	wf.Close()

	err := db.CompactRange(nil, nil)
	var ce *sstable.CorruptionError
	if !errors.As(err, &ce) || ce.FileNum != victim.Num || !strings.Contains(ce.Detail, "short read") {
		t.Fatalf("CompactRange over a short input = %v, want a short-read CorruptionError naming file %d", err, victim.Num)
	}
	// Recovery may drop the damaged file meanwhile (it cannot be
	// salvaged), but no file may appear.
	db.mu.Lock()
	v = db.vs.Current()
	for l := range v.Files {
		for _, f := range v.Files[l] {
			if !before[f.Num] {
				db.mu.Unlock()
				t.Fatalf("L%d gained file %d from a failed compaction", l, f.Num)
			}
		}
	}
	db.mu.Unlock()
	waitForEvent(t, db, buf, "a corruption latch", func(e events.Event) bool {
		return e.Kind == events.KindBackgroundError && e.BGError.Op == opCorruption
	})
}
