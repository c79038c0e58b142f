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
		{"some-new-op", cause, SeverityUnrecoverable},
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
	if SeverityFatal.Recoverable() || SeverityUnrecoverable.Recoverable() {
		t.Error("fatal/unrecoverable must not be Recoverable")
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
	unrec := &BackgroundError{Op: "x", Severity: SeverityUnrecoverable, Err: cause}
	if !errors.Is(unrec, ErrFatalError) {
		t.Error("unrecoverable error must match ErrFatalError")
	}
}

// TestAutoRecoveryWALSync is the tentpole's end-to-end case: a
// transient WAL sync fault latches a hard error, the recovery worker
// rotates to a fresh WAL and flushes the poisoned log's memtable, and
// the DB returns to Healthy and writable WITHOUT a reopen. Every
// previously acknowledged write must still read back.
func TestAutoRecoveryWALSync(t *testing.T) {
	buf := &events.Buffer{}
	db, ffs := newFaultTestDB(t, func(o *Options) {
		o.DisableAutoRecovery = false
		o.RecoveryBaseBackoff = time.Millisecond
		o.EventListener = buf
	})
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
	db, ffs := newFaultTestDB(t, func(o *Options) {
		o.DisableAutoRecovery = false
		o.RecoveryBaseBackoff = time.Millisecond
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
func TestFailedSyncedWriteStaysGoneAfterReopen(t *testing.T) {
	for _, acked := range []int{0, 20} {
		for _, manual := range []bool{false, true} {
			t.Run(fmt.Sprintf("acked=%d/manual=%v", acked, manual), func(t *testing.T) {
				tweak := func(o *Options) {
					o.DisableAutoRecovery = manual
					o.RecoveryBaseBackoff = time.Millisecond
				}
				db, ffs := newFaultTestDB(t, tweak)
				for i := 0; i < acked; i++ {
					if err := db.Put(testKey(i), testValue(i)); err != nil {
						t.Fatalf("Put %d: %v", i, err)
					}
				}
				ffs.AddRule(faultfs.Rule{
					Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", FailNTimes: 1,
				})
				if err := db.Put(testKey(acked), testValue(acked)); err == nil {
					t.Fatal("synced Put during WAL sync fault succeeded")
				}
				if manual {
					if err := db.Resume(); err != nil {
						t.Fatalf("Resume: %v", err)
					}
				}
				waitHealthy(t, db, 10*time.Second)
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
				opts, _ := faultTestOptions(t, tweak)
				opts.FS = ffs
				db, err := Open(opts)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer db.Close()
				check(db, "after reopen")
			})
		}
	}
}

// TestResumeAfterHeal: with auto-recovery disabled, the latch persists
// until a manual Resume, which succeeds once the fault has healed.
func TestResumeAfterHeal(t *testing.T) {
	buf := &events.Buffer{}
	db, ffs := newFaultTestDB(t, func(o *Options) { o.EventListener = buf })
	defer db.Close()

	if err := db.Put(testKey(0), testValue(0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ffs.AddRule(faultfs.Rule{
		Ops: []faultfs.Op{faultfs.OpSync}, Path: "*.log", FailNTimes: 1,
	})
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

// TestRecoveryGiveup: the auto worker stops after MaxRecoveryAttempts
// against a persistent fault (latch intact, giveup recorded), and a
// later manual Resume still heals the DB.
func TestRecoveryGiveup(t *testing.T) {
	buf := &events.Buffer{}
	db, ffs := newFaultTestDB(t, func(o *Options) {
		o.DisableAutoRecovery = false
		o.RecoveryBaseBackoff = time.Millisecond
		o.RecoveryMaxBackoff = 2 * time.Millisecond
		o.MaxRecoveryAttempts = 3
		o.EventListener = buf
	})
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

	deadline := time.Now().Add(10 * time.Second)
	for db.Metrics().RecoveryGiveups.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := db.Metrics().RecoveryGiveups.Load(); got != 1 {
		t.Fatalf("RecoveryGiveups = %d, want 1", got)
	}
	if got := db.Metrics().RecoveryAttempts.Load(); got < 3 {
		t.Errorf("RecoveryAttempts = %d, want >= 3", got)
	}
	if db.BackgroundError() == nil {
		t.Fatal("latch cleared despite giveup")
	}
	requireRecoveryEvent(t, db, buf, events.KindRecoveryGiveup, false)

	// Manual Resume remains available after giveup.
	ffs.ClearRules()
	if err := db.Resume(); err != nil {
		t.Fatalf("Resume after giveup: %v", err)
	}
	waitHealthy(t, db, 10*time.Second)
	if err := db.Put(testKey(2), testValue(2)); err != nil {
		t.Fatalf("Put after post-giveup Resume: %v", err)
	}
}

// TestCloseWhileLatched is the satellite regression test: Close must
// neither deadlock nor leak goroutines when called while a background
// error is latched, the flush worker is parked on a queued immutable,
// and (in the auto case) the recovery worker is mid-backoff against a
// persistent fault.
func TestCloseWhileLatched(t *testing.T) {
	for _, auto := range []bool{false, true} {
		t.Run(fmt.Sprintf("auto=%v", auto), func(t *testing.T) {
			before := runtime.NumGoroutine()

			db, ffs := newFaultTestDB(t, func(o *Options) {
				o.DisableAutoRecovery = !auto
				o.RecoveryBaseBackoff = time.Millisecond
				o.RecoveryMaxBackoff = 50 * time.Millisecond
			})
			for i := 0; i < 50; i++ {
				if err := db.Put(testKey(i), testValue(i)); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
			}
			// Latch via the MANIFEST so the immutable from the failed
			// flush stays queued and the flush worker parks on the
			// latch; the persistent create rule keeps recovery failing.
			ffs.AddRule(faultfs.Rule{
				Ops: []faultfs.Op{faultfs.OpSync}, Path: "MANIFEST-*", FailNTimes: 1,
			})
			ffs.AddRule(faultfs.Rule{
				Ops: []faultfs.Op{faultfs.OpCreate}, Path: "MANIFEST-*",
			})
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

			// All workers (flush, compaction, stats, recovery) must be
			// gone; allow the runtime a moment to reap them.
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
}
