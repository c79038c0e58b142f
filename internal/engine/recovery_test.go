package engine

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// waitHealthy polls until the DB reports Healthy (latch cleared, no
// soft errors, no recovery in flight) or the deadline passes. The
// fault tests run on the real clock, so polling is the only option.
func waitHealthy(t *testing.T, db *DB, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if db.Health() == Healthy {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("DB did not return to Healthy within %v: health=%v bgErr=%v",
		timeout, db.Health(), db.BackgroundError())
}

// newSimFaultEnv is newSimEnv on a zero-cost device behind a faultfs
// on the kernel clock, with the fault tests' options: the recovery
// worker's whole backoff schedule passes in virtual time.
func newSimFaultEnv(t *testing.T, tweak func(*Options)) (*simEnv, *faultfs.FS) {
	t.Helper()
	env := newSimEnv(storage.Null(), func(o *Options) {
		o.MemtableSize = 64 << 10
		o.ThrottleMode = throttle.ModeNone
		o.SyncWAL = true
		if tweak != nil {
			tweak(o)
		}
	})
	ffs, err := faultfs.New(env.fs, env.k, 1)
	if err != nil {
		t.Fatalf("faultfs.New: %v", err)
	}
	env.o.FS = ffs
	return env, ffs
}

// requireSimGiveup waits, in virtual time, for the recovery worker to
// give up on a latch it cannot repair, and pins the fixed policy it
// ran: exactly 12 automatic attempts, and a giveup no earlier than the
// summed backoff (5+10+20+40+80+160+320+4×500 ms) after the first.
func requireSimGiveup(t *testing.T, env *simEnv, db *DB, buf *events.Buffer) {
	t.Helper()
	var first, giveup *events.Event
	attempts := 0
	for deadline := env.k.Elapsed() + 30*time.Second; giveup == nil; env.k.Sleep(time.Millisecond) {
		if env.k.Elapsed() >= deadline {
			t.Fatalf("recovery did not give up within 30s of virtual time; attempts=%d",
				db.Metrics().RecoveryAttempts.Load())
		}
		db.SyncEvents()
		first, giveup, attempts = nil, nil, 0
		for _, e := range buf.Events() {
			if e.Recovery == nil || e.Recovery.Manual {
				continue
			}
			switch e.Kind {
			case events.KindRecoveryAttempt:
				attempts++
				if first == nil {
					first = &e
				}
			case events.KindRecoveryGiveup:
				giveup = &e
			}
		}
	}
	if attempts != 12 || giveup.Recovery.Attempt != 12 {
		t.Fatalf("recovery gave up after %d attempts (giveup at attempt %d), want 12",
			attempts, giveup.Recovery.Attempt)
	}
	if got := db.Metrics().RecoveryAttempts.Load(); got != 12 {
		t.Fatalf("RecoveryAttempts = %d, want 12", got)
	}
	if got := db.Metrics().RecoveryGiveups.Load(); got != 1 {
		t.Fatalf("RecoveryGiveups = %d, want 1", got)
	}
	if d := giveup.TS.Sub(first.TS); d < 2635*time.Millisecond {
		t.Fatalf("giveup %v after the first attempt, want ≥ 2.635s of backoff", d)
	}
}

// simWaitHealthy is waitHealthy on the kernel clock: it polls for up
// to 10 s of virtual time.
func simWaitHealthy(t *testing.T, env *simEnv, db *DB) {
	t.Helper()
	for deadline := env.k.Elapsed() + 10*time.Second; db.Health() != Healthy; env.k.Sleep(time.Millisecond) {
		if env.k.Elapsed() >= deadline {
			t.Fatalf("DB did not return to Healthy within 10s: health=%v bgErr=%v",
				db.Health(), db.BackgroundError())
		}
	}
}

// simWaitGiveup waits, in virtual time, until the recovery worker has
// spent its attempt budget on the latched error (about 2.6 s of
// backoff).
func simWaitGiveup(t *testing.T, env *simEnv, db *DB) {
	t.Helper()
	for deadline := env.k.Elapsed() + 30*time.Second; db.Metrics().RecoveryGiveups.Load() == 0; env.k.Sleep(time.Millisecond) {
		if env.k.Elapsed() >= deadline {
			t.Fatalf("recovery did not give up within 30s of virtual time; attempts=%d",
				db.Metrics().RecoveryAttempts.Load())
		}
	}
}

// requireRecoveryEvent fails unless buf receives a recovery event of
// the given kind with the given Manual flag.
func requireRecoveryEvent(t *testing.T, db *DB, buf *events.Buffer, kind events.Kind, manual bool) {
	t.Helper()
	waitForEvent(t, db, buf, fmt.Sprintf("a %s event (manual=%v)", kind, manual), func(e events.Event) bool {
		return e.Kind == kind && e.Recovery != nil && e.Recovery.Manual == manual
	})
}

// TestSeverityClassification pins the op→severity table: a silent
// change here changes which failures latch writes, so every row is
// spelled out.
func TestSeverityClassification(t *testing.T) {
	cause := errors.New("io fault")
	full := fmt.Errorf("write: %w", vfs.ErrNoSpace)
	cases := []struct {
		op   string
		err  error
		want Severity
	}{
		{opFlush, cause, SeveritySoft},
		{opCompaction, cause, SeveritySoft},
		{opWALRotateCreate, cause, SeveritySoft},
		{opWALAppend, cause, SeverityHard},
		{opWALSync, cause, SeverityHard},
		{opWALRotateSync, cause, SeverityHard},
		{opManifestAppend, cause, SeverityHard},
		{opManifestInstall, cause, SeverityFatal},
		{"some-new-op", cause, SeverityFatal},
		// Disk-full escalates flush/compaction/rotate-create to hard
		// (retrying in place cannot succeed until space frees, and the
		// write path needs a latch to fail fast on and a recovery worker
		// that probes for space).
		{opFlush, full, SeverityHard},
		{opCompaction, full, SeverityHard},
		{opWALRotateCreate, full, SeverityHard},
		{opFlush, fmt.Errorf("sst: %w", syscall.ENOSPC), SeverityHard},
	}
	for _, c := range cases {
		if got := classifySeverity(c.op, c.err); got != c.want {
			t.Errorf("classifySeverity(%q, %v) = %v, want %v", c.op, c.err, got, c.want)
		}
	}
	if !SeveritySoft.Recoverable() || !SeverityHard.Recoverable() {
		t.Error("soft/hard must be Recoverable")
	}
	if SeverityFatal.Recoverable() {
		t.Error("fatal must not be Recoverable")
	}
}

// TestBackgroundErrorSentinels pins the errors.Is contract: a latched
// error matches ErrBackground plus exactly one severity sentinel, and
// unwraps to its cause.
func TestBackgroundErrorSentinels(t *testing.T) {
	cause := errors.New("device went away")
	hard := &BackgroundError{Op: opWALSync, Severity: SeverityHard, Err: cause}
	if !errors.Is(hard, ErrBackground) {
		t.Error("hard error does not match ErrBackground")
	}
	if !errors.Is(hard, ErrHardError) {
		t.Error("hard error does not match ErrHardError")
	}
	if errors.Is(hard, ErrSoftError) || errors.Is(hard, ErrFatalError) {
		t.Error("hard error matches a foreign severity sentinel")
	}
	if !errors.Is(hard, cause) {
		t.Error("hard error does not unwrap to its cause")
	}

	fatal := &BackgroundError{Op: opManifestInstall, Severity: SeverityFatal, Err: cause}
	if !errors.Is(fatal, ErrBackground) || !errors.Is(fatal, ErrFatalError) {
		t.Error("fatal error must match ErrBackground and ErrFatalError")
	}
	if errors.Is(fatal, ErrHardError) {
		t.Error("fatal error matches ErrHardError")
	}
}

// TestAutoRecoveryWALSync is the tentpole's end-to-end case: a
// transient WAL sync fault latches a hard error, the recovery worker
// rotates to a fresh WAL and flushes the poisoned log's memtable, and
// the DB returns to Healthy and writable WITHOUT a reopen. Every
// previously acknowledged write must still read back.
func TestAutoRecoveryWALSync(t *testing.T) {
	buf := &events.Buffer{}
	db, ffs := newFaultTestDB(t, func(o *Options) { o.EventListener = buf })
	defer db.Close()

	const acked = 20
	for i := 0; i < acked; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	ffs.AddRule(faultfs.Rule{
		Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", FailNTimes: 1,
	})
	if err := db.Put(testKey(acked), testValue(acked)); err == nil {
		t.Fatal("Put during WAL sync fault succeeded")
	}

	waitHealthy(t, db, 10*time.Second)

	// Writable again on the same handle.
	if err := db.Put(testKey(acked+1), testValue(acked+1)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	// Everything acknowledged survives; the failed write was never
	// acked and must not reappear as a zombie.
	for i := 0; i < acked; i++ {
		if v, err := db.Get(testKey(i)); err != nil || string(v) != string(testValue(i)) {
			t.Fatalf("Get(key%d) after recovery = (%q, %v)", i, v, err)
		}
	}
	if _, err := db.Get(testKey(acked)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed write reappeared after recovery: Get = %v, want ErrNotFound", err)
	}

	requireRecoveryEvent(t, db, buf, events.KindRecoveryBegin, false)
	requireRecoveryEvent(t, db, buf, events.KindRecoverySuccess, false)
	if got := db.Metrics().RecoverySuccesses.Load(); got < 1 {
		t.Errorf("RecoverySuccesses = %d, want >= 1", got)
	}
}

// TestAutoRecoveryManifestAppend: a transient MANIFEST sync fault
// during flush latches hard; recovery rolls to a fresh MANIFEST
// (abandoning the possibly-torn tail) and drains the stuck immutable.
func TestAutoRecoveryManifestAppend(t *testing.T) {
	buf := &events.Buffer{}
	db, ffs := newFaultTestDB(t, func(o *Options) { o.EventListener = buf })
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
	// Flush may return the latched error, or nil if the recovery
	// worker wins the race and drains the immutable before Flush
	// wakes; the latch itself is asserted via the HardErrors counter.
	_ = db.Flush()

	waitHealthy(t, db, 10*time.Second)
	if got := db.Metrics().HardErrors.Load(); got < 1 {
		t.Fatalf("HardErrors = %d, want >= 1 (MANIFEST fault never latched)", got)
	}

	if err := db.Put(testKey(acked), testValue(acked)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	for i := 0; i <= acked; i++ {
		if v, err := db.Get(testKey(i)); err != nil || string(v) != string(testValue(i)) {
			t.Fatalf("Get(key%d) after recovery = (%q, %v)", i, v, err)
		}
	}
	requireRecoveryEvent(t, db, buf, events.KindRecoverySuccess, false)
}

// TestFailedSyncedWriteStaysGoneAfterReopen: a synced Put whose WAL
// sync failed reads as absent once the store heals, and must stay absent
// after a clean Close and reopen — the repair retires the abandoned log
// even when the memtable it covered was empty, so replay cannot bring
// the failed record back. Every acked Put reads back on both handles.
// It runs on the simulation kernel, so the manual case's wait for the
// worker's giveup passes in virtual time.
func TestFailedSyncedWriteStaysGoneAfterReopen(t *testing.T) {
	for _, acked := range []int{0, 20} {
		for _, manual := range []bool{false, true} {
			t.Run(fmt.Sprintf("acked=%d/manual=%v", acked, manual), func(t *testing.T) {
				env, ffs := newSimFaultEnv(t, nil)
				env.k.Run(func() {
					db, err := Open(env.o)
					if err != nil {
						t.Fatalf("Open: %v", err)
					}
					for i := 0; i < acked; i++ {
						if err := db.Put(testKey(i), testValue(i)); err != nil {
							t.Fatalf("Put %d: %v", i, err)
						}
					}
					ffs.AddRule(faultfs.Rule{
						Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", FailNTimes: 1,
					})
					if manual {
						blockRepair(ffs)
					}
					if err := db.Put(testKey(acked), testValue(acked)); err == nil {
						t.Fatal("synced Put during WAL sync fault succeeded")
					}
					if manual {
						// Only a latch the worker gave up on is left to
						// Resume's own attempt.
						simWaitGiveup(t, env, db)
						ffs.ClearRules()
						if err := db.Resume(); err != nil {
							t.Fatalf("Resume: %v", err)
						}
					}
					simWaitHealthy(t, env, db)
					check := func(db *DB, when string) {
						t.Helper()
						for i := 0; i < acked; i++ {
							if v, err := db.Get(testKey(i)); err != nil || string(v) != string(testValue(i)) {
								t.Fatalf("%s: Get(key%d) = (%q, %v)", when, i, v, err)
							}
						}
						if v, err := db.Get(testKey(acked)); !errors.Is(err, ErrNotFound) {
							t.Fatalf("%s: failed write Get = (%q, %v), want ErrNotFound", when, v, err)
						}
					}
					check(db, "live handle")
					if err := db.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					db, err = Open(env.o)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					defer db.Close()
					check(db, "after reopen")
				})
			})
		}
	}
}

// TestResumeAfterHeal: a latch the recovery worker cannot repair
// persists through its whole attempt budget; once the fault heals, a
// manual Resume clears it. It runs on the simulation kernel, so the
// budget's backoff passes in virtual time.
func TestResumeAfterHeal(t *testing.T) {
	buf := &events.Buffer{}
	env, ffs := newSimFaultEnv(t, func(o *Options) { o.EventListener = buf })
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()

		if err := db.Put(testKey(0), testValue(0)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		ffs.AddRule(faultfs.Rule{
			Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", FailNTimes: 1,
		})
		blockRepair(ffs)
		if err := db.Put(testKey(1), testValue(1)); err == nil {
			t.Fatal("Put during sync fault succeeded")
		}

		bg := db.BackgroundError()
		if !errors.Is(bg, ErrBackground) || !errors.Is(bg, ErrHardError) {
			t.Fatalf("latched error %v does not match ErrBackground+ErrHardError", bg)
		}
		if errors.Is(bg, ErrFatalError) {
			t.Fatalf("latched error %v wrongly matches ErrFatalError", bg)
		}
		if h := db.Health(); h != ReadOnly {
			t.Fatalf("Health = %v while hard error latched, want %v", h, ReadOnly)
		}

		simWaitGiveup(t, env, db)
		ffs.ClearRules()
		if err := db.Resume(); err != nil {
			t.Fatalf("Resume after fault healed: %v", err)
		}
		if h := db.Health(); h != Healthy {
			t.Fatalf("Health after Resume = %v, want %v", h, Healthy)
		}
		if err := db.Put(testKey(2), testValue(2)); err != nil {
			t.Fatalf("Put after Resume: %v", err)
		}
		if v, err := db.Get(testKey(0)); err != nil || string(v) != string(testValue(0)) {
			t.Fatalf("Get(key0) after Resume = (%q, %v)", v, err)
		}
		if _, err := db.Get(testKey(1)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("unacked write visible after Resume: %v", err)
		}

		requireRecoveryEvent(t, db, buf, events.KindRecoveryBegin, true)
		requireRecoveryEvent(t, db, buf, events.KindRecoverySuccess, true)
	})
}

// TestResumeWhileFaultPersists: Resume must return the (still) latched
// error while the underlying fault persists, then succeed once the
// rules are cleared.
func TestResumeWhileFaultPersists(t *testing.T) {
	db, ffs := newFaultTestDB(t, nil)
	defer db.Close()

	if err := db.Put(testKey(0), testValue(0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// One transient sync fault to latch, plus a persistent create
	// fault so the recovery probe (fresh WAL creation) keeps failing.
	ffs.AddRule(faultfs.Rule{
		Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", FailNTimes: 1,
	})
	ffs.AddRule(faultfs.Rule{
		Ops: []faultfs.Op{faultfs.OpCreate}, Path: "*.log",
	})
	if err := db.Put(testKey(1), testValue(1)); err == nil {
		t.Fatal("Put during sync fault succeeded")
	}

	err := db.Resume()
	if err == nil {
		t.Fatal("Resume succeeded while the WAL-create fault persists")
	}
	if !errors.Is(err, ErrBackground) || !errors.Is(err, ErrHardError) {
		t.Fatalf("Resume error %v does not match ErrBackground+ErrHardError", err)
	}
	if db.BackgroundError() == nil {
		t.Fatal("latch cleared by a failed Resume")
	}
	if h := db.Health(); h != ReadOnly {
		t.Fatalf("Health after failed Resume = %v, want %v", h, ReadOnly)
	}

	ffs.ClearRules()
	if err := db.Resume(); err != nil {
		t.Fatalf("Resume after clearing faults: %v", err)
	}
	if err := db.Put(testKey(2), testValue(2)); err != nil {
		t.Fatalf("Put after successful Resume: %v", err)
	}
}

// TestRecoveryGiveup: the auto worker stops after its attempt budget
// against a persistent fault (latch intact, giveup recorded), and a
// later manual Resume still heals the DB. It runs on the simulation
// kernel, so the 2.6 s backoff schedule is virtual.
func TestRecoveryGiveup(t *testing.T) {
	buf := &events.Buffer{}
	env, ffs := newSimFaultEnv(t, func(o *Options) { o.EventListener = buf })
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()

		if err := db.Put(testKey(0), testValue(0)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		ffs.AddRule(faultfs.Rule{
			Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", FailNTimes: 1,
		})
		ffs.AddRule(faultfs.Rule{
			Ops: []faultfs.Op{faultfs.OpCreate}, Path: "*.log",
		})
		if err := db.Put(testKey(1), testValue(1)); err == nil {
			t.Fatal("Put during sync fault succeeded")
		}

		requireSimGiveup(t, env, db, buf)
		if db.BackgroundError() == nil {
			t.Fatal("latch cleared despite giveup")
		}

		// Manual Resume remains available after giveup.
		ffs.ClearRules()
		if err := db.Resume(); err != nil {
			t.Fatalf("Resume after giveup: %v", err)
		}
		simWaitHealthy(t, env, db)
		if err := db.Put(testKey(2), testValue(2)); err != nil {
			t.Fatalf("Put after post-giveup Resume: %v", err)
		}
	})
}

// TestCloseWhileLatched: Close must neither deadlock nor leak
// goroutines when called while a background error is latched, the
// flush worker is parked on a queued immutable, and the recovery worker
// is mid-backoff against a persistent fault.
func TestCloseWhileLatched(t *testing.T) {
	// The subtest name is kept from when a manual-recovery mode ran
	// alongside; recovery is now always automatic.
	t.Run("auto=true", func(t *testing.T) {
		before := runtime.NumGoroutine()

		db, ffs := newFaultTestDB(t, nil)
		for i := 0; i < 50; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		// Latch via the MANIFEST so the immutable from the failed flush
		// stays queued and the flush worker parks on the latch; blockRepair
		// keeps recovery failing.
		ffs.AddRule(faultfs.Rule{
			Ops: []faultfs.Op{faultfs.OpSync}, Path: "MANIFEST-*", FailNTimes: 1,
		})
		blockRepair(ffs)
		if err := db.Flush(); err == nil {
			t.Fatal("Flush with faulted MANIFEST succeeded")
		}
		if db.BackgroundError() == nil {
			t.Fatal("no latched error before Close")
		}

		done := make(chan error, 1)
		go func() { done <- db.Close() }()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("Close deadlocked while background error latched")
		}

		// All workers (flush, compaction, stats, recovery) must be gone;
		// allow the runtime a moment to reap them.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("goroutine leak after Close: before=%d after=%d",
			before, runtime.NumGoroutine())
	})
}
