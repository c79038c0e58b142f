package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// TestSpaceManagerAccounting pins the byte bookkeeping: track, grow,
// re-track (size update, not double-count) and untrack must keep Used
// exact, and an unlimited manager never leaves StateClear.
func TestSpaceManagerAccounting(t *testing.T) {
	sm := NewSpaceManager(0)
	sm.setFile("s0/000001.sst", 100)
	sm.setFile("s0/000002.log", 50)
	if got := sm.Used(); got != 150 {
		t.Fatalf("Used = %d, want 150", got)
	}
	sm.grow("s0/000002.log", 25)
	if got := sm.Used(); got != 175 {
		t.Fatalf("Used after grow = %d, want 175", got)
	}
	// Re-tracking a known file replaces its size (seeding after reopen,
	// or a manifest roll re-stating the file) — it must not add.
	sm.setFile("s0/000001.sst", 120)
	if got := sm.Used(); got != 195 {
		t.Fatalf("Used after re-track = %d, want 195", got)
	}
	sm.untrack("s0/000001.sst")
	sm.untrack("s0/000001.sst") // double-untrack is a no-op
	if got := sm.Used(); got != 75 {
		t.Fatalf("Used after untrack = %d, want 75", got)
	}
	if s := sm.State(); s != throttle.StateClear {
		t.Fatalf("unlimited manager state = %v, want Clear", s)
	}
	if !sm.TryReserve(1 << 40) {
		t.Fatal("unlimited manager refused a reservation")
	}
	sm.Release(1 << 40)
}

// TestSpaceManagerLadder pins the two-stage degradation math: with
// budget b and threshold t, free ≤ b·t delays and free ≤ b·t/2 stops,
// reservations counting as consumed. Subscribers hear every transition.
func TestSpaceManagerLadder(t *testing.T) {
	// budget 1000, threshold 0.1: slow line at free=100, stop at free=50.
	sm := NewSpaceManager(1000)
	var mu sync.Mutex
	var seen []throttle.State
	sm.subscribe(func(s throttle.State) {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
	})

	sm.setFile("f", 850) // free 150
	if s := sm.State(); s != throttle.StateClear {
		t.Fatalf("free=150: state %v, want Clear", s)
	}
	sm.grow("f", 50) // free 100 — exactly the slow line
	if s := sm.State(); s != throttle.StateDelayed {
		t.Fatalf("free=100: state %v, want Delayed", s)
	}
	if !sm.TryReserve(50) { // free 50 — exactly the stop line
		t.Fatal("reservation within budget refused")
	}
	if s := sm.State(); s != throttle.StateStopped {
		t.Fatalf("free=50 (with reservation): state %v, want Stopped", s)
	}
	// A reservation that would overrun the budget defers.
	if sm.TryReserve(51) {
		t.Fatal("over-budget reservation accepted")
	}
	sm.Release(50)
	if s := sm.State(); s != throttle.StateDelayed {
		t.Fatalf("after release: state %v, want Delayed", s)
	}
	sm.SetBudget(10000) // budget raise clears the stall immediately
	if s := sm.State(); s != throttle.StateClear {
		t.Fatalf("after budget raise: state %v, want Clear", s)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []throttle.State{throttle.StateDelayed, throttle.StateStopped,
		throttle.StateDelayed, throttle.StateClear}
	if len(seen) != len(want) {
		t.Fatalf("subscriber saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("subscriber transition %d = %v, want %v (all: %v)", i, seen[i], want[i], seen)
		}
	}
}

// TestFlushDeferralOverBudget exercises the deferred-not-failed policy:
// a flush whose projected output cannot fit the space budget parks
// (SpaceDeferrals counts it) and completes once the budget grows — no
// error, no data loss.
func TestFlushDeferralOverBudget(t *testing.T) {
	db, _ := newFaultTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
		// Sized so the workload's WAL bytes leave less free space than
		// the flush's projected output (deferral) while staying above
		// the ladder's slow line (writes keep flowing): used ≈ 16 KiB of
		// WAL, free ≈ 48 KiB, projected ≈ 16 KiB fits — so overshoot
		// with reservations is what trips it; simplest is to shrink the
		// budget below usage right before the flush instead.
		o.MaxAllowedSpace = 1 << 30
	})
	defer db.Close()

	const n = 120
	for i := 0; i < n; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	sm := db.Shared().Space
	if sm == nil {
		t.Fatal("Shared().Space = nil with MaxAllowedSpace set")
	}
	// Squeeze the budget to exactly current consumption: any projected
	// flush output now overruns it, so the manual flush must defer.
	sm.SetBudget(sm.Used() + sm.Reserved())

	flushDone := make(chan error, 1)
	go func() { flushDone <- db.Flush() }()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && db.Metrics().SpaceDeferrals.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if db.Metrics().SpaceDeferrals.Load() == 0 {
		t.Fatal("flush over budget did not defer")
	}
	select {
	case err := <-flushDone:
		t.Fatalf("deferred flush returned early: %v", err)
	default:
	}

	// Reads serve throughout the deferral.
	if _, err := db.Get(testKey(0)); err != nil {
		t.Fatalf("Get during deferral: %v", err)
	}

	sm.SetBudget(1 << 30) // operator grows the budget; the job resumes
	select {
	case err := <-flushDone:
		if err != nil {
			t.Fatalf("flush after budget raise: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deferred flush did not complete after budget raise")
	}
	if db.Metrics().FlushLatency.Count() == 0 {
		t.Fatal("no flush recorded after budget raise")
	}
	for i := 0; i < n; i += 7 {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d after deferral: %v", i, err)
		}
	}
}

// TestWaitForSpaceRecovery is the tentpole's squeeze/release case at
// unit scale: the filesystem quota drops below current usage, a write
// latches a disk-full hard error, reads keep serving, and once the
// quota releases the recovery worker's wait-for-space path returns the
// SAME handle to Healthy with every acknowledged write intact.
func TestWaitForSpaceRecovery(t *testing.T) {
	db, ffs := newFaultTestDB(t, nil)
	defer db.Close()

	const acked = 50
	for i := 0; i < acked; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}

	ffs.SetQuota(ffs.DiskUsed()) // full: syncs still pass, appends fail
	err := db.Put(testKey(acked), testValue(acked))
	if err == nil {
		t.Fatal("Put on a full disk succeeded")
	}
	if !errors.Is(err, vfs.ErrNoSpace) && !errors.Is(err, ErrBackground) {
		t.Fatalf("Put on full disk = %v, want disk-full or latched error", err)
	}

	// Reads never block on space.
	for i := 0; i < acked; i += 11 {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d during squeeze: %v", i, err)
		}
	}

	// Hold the squeeze long enough for recovery to probe and fail —
	// that is the wait-for-space loop in action.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && db.Metrics().SpaceWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if db.Metrics().SpaceWaits.Load() == 0 {
		t.Fatal("no space wait recorded while the quota held")
	}

	ffs.SetQuota(-1) // operator frees space
	waitHealthy(t, db, 10*time.Second)
	if db.Metrics().SpaceRecoveries.Load() == 0 {
		t.Fatal("no space recovery recorded after release")
	}
	if db.Metrics().EnospcErrors.Load() == 0 {
		t.Fatal("no ENOSPC error counted across the squeeze")
	}

	// Same handle, fully writable again; nothing acked was lost.
	for i := 0; i < acked; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get %d after recovery: %v", i, err)
		}
	}
	if err := db.Put([]byte("post-squeeze"), []byte("v")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

// TestFullDiskUnderFullMemtableLatches: with the disk full and the
// memtable at its budget, the write that must rotate cannot create the
// next WAL. That latches a hard error — writes fail fast with
// ErrBackground, Health leaves Healthy and the recovery worker probes
// for space — where a soft error would fail every write while Health
// stayed Healthy and nothing ever probed. Once space returns, the same
// handle heals and every acknowledged write reads back.
func TestFullDiskUnderFullMemtableLatches(t *testing.T) {
	db, ffs := newFaultTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
	})
	defer db.Close()

	// Fill the memtable to its budget; no write has rotated it yet, so
	// the next one must.
	acked := 0
	for full := false; !full; acked++ {
		if err := db.Put(testKey(acked), testValue(acked)); err != nil {
			t.Fatalf("Put %d: %v", acked, err)
		}
		db.mu.Lock()
		full = db.mem.ApproximateSize() >= db.memBudget
		rotated := len(db.imms) > 0
		db.mu.Unlock()
		if rotated || db.Metrics().FlushLatency.Count() > 0 {
			t.Fatalf("memtable rotated after %d writes, before it was full", acked+1)
		}
	}

	ffs.SetQuota(ffs.DiskUsed()) // full: the rotation's WAL create fails
	if err := db.Put(testKey(acked), testValue(acked)); err == nil {
		t.Fatal("rotating Put on a full disk succeeded")
	}
	if err := db.Put(testKey(acked), testValue(acked)); !errors.Is(err, ErrBackground) {
		t.Fatalf("Put after the failed rotation = %v, want the latched ErrBackground", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && db.Metrics().SpaceWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if h := db.Health(); h == Healthy {
		t.Fatal("Health = Healthy with every write failing on a full disk")
	}
	if db.Metrics().SpaceWaits.Load() == 0 {
		t.Fatal("no space wait recorded while the disk was full")
	}
	if _, err := db.Get(testKey(0)); err != nil {
		t.Fatalf("Get under the latch: %v", err)
	}

	ffs.SetQuota(-1) // operator frees space
	waitHealthy(t, db, 10*time.Second)
	for i := 0; i < acked; i++ {
		v, err := db.Get(testKey(i))
		if err != nil || string(v) != string(testValue(i)) {
			t.Fatalf("Get %d after recovery = (%q, %v), want the acked value", i, v, err)
		}
	}
	if err := db.Put(testKey(acked), testValue(acked)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

// TestSpaceRecoveryGiveupBounded pins the honest-failure half of the
// contract: when space never frees, automatic recovery stops after its
// attempt budget (bounded, no silent infinite retry), writes keep
// failing fast, reads keep serving — and a manual Resume after the
// space returns heals the same handle. It runs on the simulation
// kernel, so the 2.6 s backoff schedule is virtual.
func TestSpaceRecoveryGiveupBounded(t *testing.T) {
	buf := &events.Buffer{}
	env, ffs := newSimFaultEnv(t, func(o *Options) { o.EventListener = buf })
	env.k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()

		const acked = 30
		for i := 0; i < acked; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}

		ffs.SetQuota(ffs.DiskUsed())
		if err := db.Put(testKey(acked), testValue(acked)); err == nil {
			t.Fatal("Put on a full disk succeeded")
		}

		requireSimGiveup(t, env, db, buf)
		if db.Health() == Healthy {
			t.Fatal("Health = Healthy with the quota still squeezed")
		}
		// Post-giveup: writes fail fast with the latched error, reads serve.
		if err := db.Put([]byte("poison"), []byte("v")); !errors.Is(err, ErrBackground) {
			t.Fatalf("Put after giveup = %v, want latched background error", err)
		}
		if _, err := db.Get(testKey(0)); err != nil {
			t.Fatalf("Get after giveup: %v", err)
		}

		ffs.SetQuota(-1)
		if err := db.Resume(); err != nil {
			t.Fatalf("Resume after release: %v", err)
		}
		simWaitHealthy(t, env, db)
		for i := 0; i < acked; i++ {
			if _, err := db.Get(testKey(i)); err != nil {
				t.Fatalf("Get %d after Resume: %v", i, err)
			}
		}
		if err := db.Put([]byte("post-resume"), []byte("v")); err != nil {
			t.Fatalf("Put after Resume: %v", err)
		}
	})
}

// TestCloseDuringSpaceWait pins Close() against the space poller: with
// the quota squeezed, Close lands while the recovery worker is
// mid-backoff, well inside its 12-attempt budget, and must return
// promptly — the backoff sleeps in quanta and every wait loop checks
// db.closed.
func TestCloseDuringSpaceWait(t *testing.T) {
	db, ffs := newFaultTestDB(t, nil)

	for i := 0; i < 30; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	ffs.SetQuota(ffs.DiskUsed())
	if err := db.Put([]byte("poison"), []byte("v")); err == nil {
		t.Fatal("Put on a full disk succeeded")
	}
	// Let the recovery worker engage (first probe fails, backoff arms).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && db.Metrics().SpaceWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrBackground) {
			t.Fatalf("Close during space wait: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung while the space poller was waiting")
	}
}

// TestCloseDuringSpaceDeferral pins Close() against a deferred flush:
// a flush parked waiting for budget headroom must notice the close and
// abandon the reservation attempt instead of blocking Close forever.
func TestCloseDuringSpaceDeferral(t *testing.T) {
	db, _ := newFaultTestDB(t, func(o *Options) {
		o.MemtableSize = 16 << 10
		o.MaxAllowedSpace = 1 << 30
	})

	for i := 0; i < 120; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	sm := db.Shared().Space
	sm.SetBudget(sm.Used() + sm.Reserved())
	// Rotate the memtable so the flush worker picks it up and defers.
	go db.Flush() //nolint:errcheck — interrupted by Close below

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && db.Metrics().SpaceDeferrals.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if db.Metrics().SpaceDeferrals.Load() == 0 {
		t.Fatal("flush did not defer under the squeezed budget")
	}

	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close during deferral: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung while a flush was deferred on space")
	}
}

// TestFaultFSQuota pins the injection primitive itself: SetQuota meters
// Write/Create/Sync, DiskUsed tracks shadow bytes, EnospcCount counts
// refusals, and the error chain matches vfs.ErrNoSpace.
func TestFaultFSQuota(t *testing.T) {
	ffs := newQuotaFS(t)
	f, err := ffs.Create("a.dat")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := ffs.DiskUsed(); got != 100 {
		t.Fatalf("DiskUsed = %d, want 100", got)
	}

	ffs.SetQuota(120)
	if _, err := f.Write(make([]byte, 50)); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("over-quota Write = %v, want ErrNoSpace", err)
	}
	if _, err := f.Write(make([]byte, 20)); err != nil {
		t.Fatalf("within-quota Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync at exactly quota: %v", err)
	}
	// used == quota: creates need headroom, so they fail.
	if _, err := ffs.Create("b.dat"); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("Create at quota = %v, want ErrNoSpace", err)
	}

	// Squeeze below usage: even Sync fails (dirty pages have nowhere
	// to go), until a remove frees bytes.
	ffs.SetQuota(60)
	if err := f.Sync(); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("Sync under squeeze = %v, want ErrNoSpace", err)
	}
	if ffs.EnospcCount() < 3 {
		t.Fatalf("EnospcCount = %d, want ≥ 3", ffs.EnospcCount())
	}
	f.Close()
	if err := ffs.Remove("a.dat"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := ffs.DiskUsed(); got != 0 {
		t.Fatalf("DiskUsed after remove = %d, want 0", got)
	}
	g, err := ffs.Create("c.dat")
	if err != nil {
		t.Fatalf("Create after free: %v", err)
	}
	if _, err := g.Write(make([]byte, 60)); err != nil {
		t.Fatalf("Write after free: %v", err)
	}
	g.Close()
	ffs.SetQuota(-1)
	h, err := ffs.Create("d.dat")
	if err != nil {
		t.Fatalf("Create after unlimited: %v", err)
	}
	if _, err := h.Write(make([]byte, 1<<20)); err != nil {
		t.Fatalf("Write after unlimited: %v", err)
	}
	h.Close()
}

// TestSpaceStallWatchdog pins the bounded-stall contract: a space
// ladder held Stopped past spaceStallTimeout with nothing reclaimable
// must latch ErrMaxSpaceReached (hard, disk-full class) — turning the
// silent permanent write stall into fail-fast errors — while reads keep
// serving, and a budget raise must heal the latch through wait-for-
// space recovery with nothing acknowledged lost. It runs on the
// simulation kernel, so the watchdog's 10 s are virtual.
func TestSpaceStallWatchdog(t *testing.T) {
	env := newSimEnv(storage.Null(), func(o *Options) {
		o.MemtableSize = 64 << 10
		o.ThrottleMode = throttle.ModeNone
		o.SyncWAL = true
		o.MaxAllowedSpace = 1 << 30
	})
	k := env.k
	// waitFor polls cond on the kernel clock for up to d of virtual time.
	waitFor := func(d time.Duration, cond func() bool) bool {
		for deadline := k.Elapsed() + d; !cond(); k.Sleep(time.Millisecond) {
			if k.Elapsed() >= deadline {
				return false
			}
		}
		return true
	}
	k.Run(func() {
		db, err := Open(env.o)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()

		const acked = 40
		for i := 0; i < acked; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}

		// Exhaust the budget: the ladder goes Stopped and STAYS there —
		// nothing in the engine can free tracked bytes, so without the
		// watchdog this stall would never end.
		sm := db.Shared().Space
		sm.SetBudget(sm.Used() + sm.Reserved())
		stopped := k.Elapsed()

		// A stalled writer must come back with the watchdog's latch, not
		// hang forever.
		var putErr error
		returned := false
		k.Go("stalled-put", func() {
			putErr = db.Put(testKey(acked), testValue(acked))
			returned = true
		})
		if !waitFor(2*spaceStallTimeout, func() bool { return returned }) {
			t.Fatal("stalled Put never returned: space-stall watchdog did not fire")
		}
		if putErr == nil {
			t.Fatal("Put under an exhausted budget succeeded")
		}
		if !errors.Is(putErr, ErrBackground) && !errors.Is(putErr, vfs.ErrNoSpace) {
			t.Fatalf("stalled Put = %v, want latched disk-full error", putErr)
		}
		if waited := k.Elapsed() - stopped; waited < spaceStallTimeout {
			t.Fatalf("stalled Put returned after %v, before the %v watchdog", waited, spaceStallTimeout)
		}
		if !errors.Is(db.BackgroundError(), vfs.ErrNoSpace) {
			t.Fatalf("latched error = %v, want ErrMaxSpaceReached (disk-full class)",
				db.BackgroundError())
		}

		// Reads keep serving under the latch.
		for i := 0; i < acked; i += 7 {
			if _, err := db.Get(testKey(i)); err != nil {
				t.Fatalf("Get %d under latch: %v", i, err)
			}
		}
		// Recovery polls but cannot heal while the budget binds: the probe
		// reports the ladder still Stopped.
		if !waitFor(5*time.Second, func() bool { return db.Metrics().SpaceWaits.Load() > 0 }) {
			t.Fatal("no space wait recorded while the budget held")
		}

		// The operator raises the budget: recovery heals on its own.
		sm.SetBudget(1 << 30)
		if !waitFor(10*time.Second, func() bool { return db.Health() == Healthy }) {
			t.Fatalf("DB did not return to Healthy within 10s: health=%v bgErr=%v",
				db.Health(), db.BackgroundError())
		}
		if db.Metrics().SpaceRecoveries.Load() == 0 {
			t.Fatal("no space recovery recorded after the budget raise")
		}
		for i := 0; i < acked; i++ {
			if _, err := db.Get(testKey(i)); err != nil {
				t.Fatalf("Get %d after heal: %v", i, err)
			}
		}
		if err := db.Put(testKey(acked+1), testValue(acked+1)); err != nil {
			t.Fatalf("Put after heal: %v", err)
		}
	})
}

func newQuotaFS(t *testing.T) *faultfs.FS {
	t.Helper()
	ffs, err := faultfs.New(vfs.NewMem(storage.New(clock.Real{}, storage.Null())), clock.Real{}, 1)
	if err != nil {
		t.Fatalf("faultfs.New: %v", err)
	}
	return ffs
}
