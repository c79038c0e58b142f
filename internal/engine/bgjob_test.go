package engine

import (
	"slices"
	"testing"
	"time"

	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
)

// eventually polls cond on the real clock (the fault tests run on it).
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitForEvent waits until buf, the listener db delivers to, holds an
// event match accepts. An event may trail the state change or counter
// the caller waited on, so it polls behind the SyncEvents barrier.
func waitForEvent(t *testing.T, db *DB, buf *events.Buffer, what string, match func(events.Event) bool) {
	t.Helper()
	eventually(t, what, func() bool {
		db.SyncEvents()
		return slices.ContainsFunc(buf.Events(), match)
	})
}

func countEvents(buf *events.Buffer, kind events.Kind) int {
	n := 0
	for _, e := range buf.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestKeptOutputReclaimedAfterManifestRoll: a flush whose MANIFEST
// sync fails must keep its SST (the unsynced edit may survive a crash
// and name it), but once recovery has rolled to a fresh MANIFEST
// nothing can name the file any more: it must leave the disk and the
// space accounting on the same handle, not wait for the next open.
func TestKeptOutputReclaimedAfterManifestRoll(t *testing.T) {
	buf := &events.Buffer{}
	db, ffs := newFaultTestDB(t, func(o *Options) {
		o.MaxAllowedSpace = 1 << 30
		o.EventListener = buf
	})
	defer db.Close()

	const acked = 50
	for i := 0; i < acked; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	ffs.AddRule(faultfs.Rule{
		Ops: []faultfs.Op{faultfs.OpSync}, Path: "MANIFEST-*", FailNTimes: 1,
	})
	_ = db.Flush() // may return the latch, or nil if recovery wins the race
	waitHealthy(t, db, 10*time.Second)
	db.SyncEvents()

	var kept uint64
	for _, e := range buf.Events() {
		if e.Kind == events.KindFlushEnd && e.Flush.Error != "" {
			kept = e.Flush.OutputFile
		}
	}
	if kept == 0 {
		t.Fatal("no flush failed: the MANIFEST fault never fired")
	}
	names, err := ffs.List()
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, n := range names {
		if n == manifest.SSTName(kept) {
			t.Errorf("%s, kept for the abandoned MANIFEST, is still on disk after the roll", n)
		}
		size, err := ffs.Size(n)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += size
	}
	if used := db.Shared().Space.Used(); used != onDisk {
		t.Errorf("SpaceManager.Used() = %d, the files on disk hold %d", used, onDisk)
	}
	for i := 0; i < acked; i++ {
		if v, err := db.Get(testKey(i)); err != nil || string(v) != string(testValue(i)) {
			t.Fatalf("Get(key%d) after recovery = (%q, %v)", i, v, err)
		}
	}
}

// TestBackgroundJobReleasesEverything drives both background jobs
// through the exits where something held could leak — a failed SST
// create or sync (soft, retried in place), a failed MANIFEST append
// (hard, healed by recovery), Close while the worker is parked on a
// pool token, Close while the job is deferred on space — and checks
// that afterwards nothing is held and nothing is left over. The
// engine's Shared is built with as many pool slots as the job has
// lanes (one, except at K=4) instead of the lone engine's 1 + K, so a
// worker can really park and the extra lane tokens of a fanned-out
// compaction are really drawn.
func TestBackgroundJobReleasesEverything(t *testing.T) {
	jobs := []struct {
		name       string
		compaction bool
		lanes      int
	}{{"flush", false, 1}, {"compaction/K=1", true, 1}, {"compaction/K=4", true, 4}}
	faults := map[string]faultfs.Rule{
		"sst-create":      {Ops: []faultfs.Op{faultfs.OpCreate}, Path: "*.sst", FailNTimes: 1},
		"sst-sync":        {Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.sst", FailNTimes: 1},
		"manifest-append": {Ops: []faultfs.Op{faultfs.OpSync}, Path: "MANIFEST-*", FailNTimes: 1},
	}
	exits := []string{"sst-create", "sst-sync", "manifest-append", "close-parked-on-token", "close-deferred-on-space"}
	for _, job := range jobs {
		for _, exit := range exits {
			job, exit := job, exit
			t.Run(job.name+"/"+exit, func(t *testing.T) {
				buf := &events.Buffer{}
				opts, ffs := faultTestOptions(t, func(o *Options) {
					o.MaxAllowedSpace = 1 << 30
					o.MemtableSize = 16 << 10
					o.TargetFileSize = 16 << 10
					o.BaseLevelBytes = 1 << 30 // only L0 pressure compacts
					o.L0CompactionTrigger = 4
					o.MaxSubcompactions = job.lanes
					o.EventListener = buf
				})
				sh := NewShared(opts, 1, job.lanes)
				db, err := sh.open(0, opts, true)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				pool := sh.Pool
				closed := false
				defer func() {
					if !closed {
						db.Close()
					}
				}()
				sm := db.Shared().Space
				setCompacting := func(v bool) {
					db.mu.Lock()
					db.compacting = v
					db.bgCond.Broadcast()
					db.mu.Unlock()
				}

				// Stage the job without letting it start: for a flush a
				// filled memtable, for a compaction six Level-0 files of
				// distinct key ranges (so K=4 has boundaries to split at)
				// behind a compacting flag the test holds.
				n := 100
				if job.compaction {
					setCompacting(true)
					n = 1000
				}
				for i := 0; i < n; i++ {
					if err := db.Put(testKey(i), testValue(i)); err != nil {
						t.Fatalf("Put %d: %v", i, err)
					}
				}
				if job.compaction {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					if l0 := db.NumLevelFiles(0); l0 < 4 {
						t.Fatalf("staged %d Level-0 files, want >= 4", l0)
					}
				}
				start := func() {
					if job.compaction {
						setCompacting(false)
					} else {
						go db.Flush() //nolint:errcheck — fails or is cut short by design
					}
				}
				healed := func() bool {
					if job.compaction {
						return db.Health() == Healthy && db.NumLevelFiles(0) == 0
					}
					return db.Health() == Healthy && db.NumLevelFiles(0) == 1
				}

				switch exit {
				case "close-parked-on-token":
					for i := 0; i < job.lanes; i++ {
						pool.Acquire(1 << 30) // outbids every job
					}
					start()
					eventually(t, "the worker to park on the pool", func() bool {
						_, waiting, _ := pool.Stats()
						return waiting == 1
					})
					if !job.compaction && sm.Reserved() == 0 {
						t.Error("a flush parked on the pool holds no space reservation")
					}
					done := make(chan error, 1)
					go func() { done <- db.Close() }()
					eventually(t, "Close to begin", func() bool {
						db.mu.Lock()
						defer db.mu.Unlock()
						return db.closed
					})
					pool.ReleaseN(job.lanes)
					if err := <-done; err != nil {
						t.Fatalf("Close: %v", err)
					}
					closed = true
				case "close-deferred-on-space":
					db.deleteObsoleteFiles() // a stale WAL freed later would be headroom
					sm.SetBudget(sm.Used() + sm.Reserved())
					start()
					eventually(t, "the job to defer on space", func() bool {
						return db.Metrics().SpaceDeferrals.Load() > 0
					})
				default:
					rule := ffs.AddRule(faults[exit])
					start()
					eventually(t, "the fault to fire and the job to heal", func() bool {
						return rule.Fired() == 1 && healed()
					})
				}
				if !closed {
					if err := db.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					closed = true
				}

				if r := sm.Reserved(); r != 0 {
					t.Errorf("SpaceManager.Reserved() = %d after the job, want 0", r)
				}
				if busy, _, _ := pool.Stats(); busy != 0 {
					t.Errorf("pool busy = %d after the job, want 0", busy)
				}
				live := db.vs.LiveFileNums()
				names, err := ffs.List()
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					if typ, num := manifest.ParseName(name); typ == manifest.TypeSST && !live[num] {
						t.Errorf("%s is on disk but in no version", name)
					}
				}
				for _, pair := range [][2]events.Kind{
					{events.KindFlushBegin, events.KindFlushEnd},
					{events.KindCompactionBegin, events.KindCompactionEnd},
				} {
					if b, e := countEvents(buf, pair[0]), countEvents(buf, pair[1]); b != e {
						t.Errorf("%d %s events, %d %s", b, pair[0], e, pair[1])
					}
				}
				if _, faulted := faults[exit]; faulted && job.lanes > 1 && db.Metrics().Subcompactions.Load() == 0 {
					t.Error("the K=4 compaction never split")
				}
			})
		}
	}
}

// flushOutcome is what one flush of the reference memtable left behind.
type flushOutcome struct {
	smallest, largest string
	entries           int
	begins, ends      int
	flushes, bytes    int64
	l0Jobs            int64
}

func observeFlush(t *testing.T, db *DB, buf *events.Buffer) flushOutcome {
	t.Helper()
	eventually(t, "the flush_end event", func() bool {
		db.SyncEvents()
		return countEvents(buf, events.KindFlushEnd) > 0 && db.NumLevelFiles(0) == 1
	})
	db.mu.Lock()
	meta := db.vs.Current().Files[0][0]
	db.mu.Unlock()
	out := flushOutcome{
		smallest: string(keys.UserKey(meta.Smallest)),
		largest:  string(keys.UserKey(meta.Largest)),
		begins:   countEvents(buf, events.KindFlushBegin),
		ends:     countEvents(buf, events.KindFlushEnd),
		flushes:  db.Metrics().FlushLatency.Count(),
		bytes:    db.LevelStats().Levels[0].BytesWritten,
		l0Jobs:   db.LevelStats().Levels[0].Compactions,
	}
	r, err := db.tables.get(meta)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIter()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		out.entries++
	}
	if out.bytes != meta.Size {
		t.Errorf("Level-0 BytesWritten = %d, the Level-0 file holds %d", out.bytes, meta.Size)
	}
	return out
}

// TestFlushCallersAgree flushes the same memtable contents through
// each caller of the flush job — the flush worker, the recovery drain
// behind a WAL-sync latch, and WAL replay at open — and checks they
// leave the same Level-0 file, announce it with exactly one
// flush_begin/flush_end pair and account for it identically.
func TestFlushCallersAgree(t *testing.T) {
	const n = 50
	open := func(t *testing.T) (*DB, *faultfs.FS, *events.Buffer) {
		buf := &events.Buffer{}
		db, ffs := newFaultTestDB(t, func(o *Options) {
			o.EventListener = buf
		})
		for i := 0; i < n; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		return db, ffs, buf
	}
	callers := []struct {
		name string
		run  func(t *testing.T) flushOutcome
	}{
		{"worker", func(t *testing.T) flushOutcome {
			db, _, buf := open(t)
			defer db.Close()
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			return observeFlush(t, db, buf)
		}},
		{"recovery-drain", func(t *testing.T) flushOutcome {
			db, ffs, buf := open(t)
			defer db.Close()
			ffs.AddRule(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", FailNTimes: 1})
			// The failed write latches wal-sync and never reaches the
			// memtable; recovery swaps the WAL and drains what did.
			if err := db.Put(testKey(n), testValue(n)); err == nil {
				t.Fatal("Put with a faulted WAL sync succeeded")
			}
			waitHealthy(t, db, 10*time.Second)
			return observeFlush(t, db, buf)
		}},
		{"open-replay", func(t *testing.T) flushOutcome {
			db, _, _ := open(t)
			if err := db.Close(); err != nil { // the memtable stays in its WAL
				t.Fatal(err)
			}
			buf := &events.Buffer{}
			opts := db.opts
			opts.EventListener = buf
			db2, err := Open(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			return observeFlush(t, db2, buf)
		}},
	}
	var want flushOutcome
	for i, c := range callers {
		got := c.run(t)
		if i == 0 {
			want = got
			if want.entries != n || want.begins != 1 || want.ends != 1 ||
				want.flushes != 1 || want.l0Jobs != 1 {
				t.Fatalf("%s: %+v, want %d entries, one begin/end pair, one FlushLatency sample and Levels[0].Compactions 1", c.name, want, n)
			}
		} else if got != want {
			t.Errorf("%s flushed %+v\n%s flushed %+v", c.name, got, callers[0].name, want)
		}
	}
}
