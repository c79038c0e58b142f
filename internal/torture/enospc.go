package torture

import (
	"errors"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/engine"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/vfs"
)

// enospc is the full-disk regime; contract clauses 1–4 in the package
// comment.
type enospc struct {
	sameHandle
	budgeted  bool
	squeezeAt map[int]time.Duration // op index → how long that squeeze holds
	// squeezed is set from a squeeze until the workload observes its
	// release; lifted is set by the release process.
	squeezed, lifted bool
}

func (e *enospc) tune(o *engine.Options) {
	e.sameHandle.tune(o)
	if e.budgeted {
		// Ladder thresholds sized well above what the workload writes,
		// so the quota squeeze — not the ladder — is what bites; the
		// ladder's own behavior has dedicated unit tests.
		o.MaxAllowedSpace = 512 << 20
	}
}

// start schedules 1–3 squeeze episodes, one per slice of the workload.
func (e *enospc) start(r *run) {
	e.squeezeAt = map[int]time.Duration{}
	n := 1 + r.rng.Intn(3)
	span := r.cfg.Ops / (n + 1)
	for i := 0; i < n; i++ {
		e.squeezeAt[i*span+20+r.rng.Intn(span/2+1)] = time.Duration(2+r.rng.Intn(30)) * time.Millisecond
	}
}

// squeeze drops the quota just below current usage: every byte of
// forward progress needs space that is not there.
func squeeze(ffs *faultfs.FS) (quota, used int64) {
	used = ffs.DiskUsed()
	quota = used - 1
	if quota < 1 {
		quota = 1
	}
	ffs.SetQuota(quota)
	return quota, used
}

func (e *enospc) before(r *run, i int) error {
	if e.squeezed && e.lifted {
		e.squeezed = false
		r.cfg.Logf("op %d: quota released", i)
		// The latch (if any) must clear on this same handle. A giveup
		// can slip in when the squeeze outlasted the attempt budget; a
		// single Resume must then finish the job.
		if err := r.waitHealthy(true); err != nil {
			return err
		}
	}
	if hold := e.squeezeAt[i]; hold > 0 && !e.squeezed {
		q, used := squeeze(r.ffs)
		e.squeezed, e.lifted = true, false
		r.clk.Go("enospc-release", func() {
			r.clk.Sleep(hold)
			r.ffs.SetQuota(-1)
			e.lifted = true
		})
		r.cfg.Logf("op %d: quota squeezed to %d B (used %d B) for %v", i, q, used, hold)
	}
	return nil
}

// Reads are sampled much harder during a squeeze, where a blocking or
// erroring read would be the bug clause 2 exists to catch.
func (e *enospc) spotRate() float64 {
	if e.squeezed {
		return 0.25
	}
	return 0.02
}

func (e *enospc) honest(err error, read bool) bool {
	return !read && (errors.Is(err, vfs.ErrNoSpace) || errors.Is(err, engine.ErrBackground) ||
		errors.Is(err, faultfs.ErrInjected))
}

// Unacknowledged; the scheduled release resolves the latch. Back off
// like a real client so the squeeze window covers a bounded number of
// failed ops instead of the whole workload.
func (e *enospc) failed(r *run) (bool, error) {
	r.clk.Sleep(200 * time.Microsecond)
	return false, nil
}

func (e *enospc) settle(r *run) error {
	// Wait out a still-pending release (its late lift must not sabotage
	// the never-released phase below), then settle and verify the full
	// acked state on the same handle.
	for e.squeezed && !e.lifted {
		r.clk.Sleep(time.Millisecond)
	}
	e.squeezed = false
	if err := r.waitHealthy(true); err != nil {
		return err
	}
	c := r.logCounters()
	// A short squeeze can lapse before any write reaches the disk (it
	// holds for as little as 2 ms of virtual time); what the filesystem
	// did reject, the engine must have counted.
	if n := r.ffs.EnospcCount(); n > 0 && c.enospc == 0 {
		return r.violation("the quota rejected %d operations but no ENOSPC error was ever recorded", n)
	}
	if err := r.verify(); err != nil {
		return err
	}

	// Squeeze and never release. The engine must not hang: wait-for-space
	// polls burn the bounded attempt budget and recovery gives up
	// honestly. Then space returns, and one manual Resume must finish
	// the recovery on this same handle.
	r.phase = "never-released"
	// poison tightens the quota to the current usage — the disk is
	// supposed to stay full — and submits a synced write: it must hit
	// the quota on the WAL, forcing a hard latch even if the workload
	// left nothing in flight.
	poison := func() error {
		squeeze(r.ffs)
		var b batch.Batch
		b.Put([]byte("@poison"), []byte("x"))
		return r.st.Apply(&b, true)
	}
	if poison() == nil {
		return r.violation("synced Apply succeeded under a zero-headroom quota")
	}
	deadline := r.clk.Now().Add(30 * time.Second)
	for r.c().giveups == c.giveups && r.clk.Now().Before(deadline) {
		if r.healthy() {
			// The obsolete-file scrape freed enough slack for that
			// round's repair to land: re-poison. Should space appear
			// under the squeeze after all, the ack stands like any
			// other.
			if poison() == nil {
				r.live["@poison"] = "x"
			}
		}
		r.clk.Sleep(time.Millisecond)
	}
	if now := r.c(); now.giveups == c.giveups {
		return r.violation("quota never released: recovery neither gave up nor succeeded within 30s (attempts %d, health %v)",
			now.attempts, r.st.Health())
	}
	if r.healthy() {
		return r.violation("store reports Healthy while the disk is still full after a giveup")
	}
	if err := poison(); err == nil {
		return r.violation("Apply succeeded after giveup with the disk still full")
	} else if !e.honest(err, false) {
		return r.violation("post-giveup Apply failed with a foreign error: %v", err)
	}
	if err := r.spot(1); err != nil { // reads still serve while given up
		return err
	}

	// Space returns; automatic recovery is spent, so the operator's
	// Resume must clear the latch on this handle.
	r.ffs.SetQuota(-1)
	if err := r.st.Resume(); err != nil {
		return r.violation("Resume after space release failed: %v", err)
	}
	if err := r.waitHealthy(false); err != nil {
		return err
	}
	if c = r.c(); c.spaceWaits == 0 {
		return r.violation("a never-released squeeze ran but no space wait was recorded")
	} else if c.spaceRecoveries == 0 {
		return r.violation("recovered from disk-full latches but SpaceRecoveries is 0")
	}
	// Every rejected poison failed before reaching the memtable, so
	// "@poison" must be absent — the tail's full-scan verify treats it
	// as a phantom if a rejected write leaked in anyway.
	return nil
}
