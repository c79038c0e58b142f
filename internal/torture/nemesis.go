package torture

import (
	"fmt"
	"math/rand"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/events"
)

// nemesis is one fault regime and its contract (see the package
// comment). It sees the store only through the store seam, so every
// nemesis runs against every store.
type nemesis interface {
	// tune sets the engine options the regime needs.
	tune(o *engine.Options)
	// start runs once after the clean open: it draws the seeded fault
	// schedule and arms whatever is armed from the beginning.
	start(r *run)
	// before runs in front of op i: arm, release, observe.
	before(r *run, i int) error
	// spotRate is the probability of a live spot read in front of the
	// next op.
	spotRate() float64
	// absorb folds into r.loose what the store declared lost in the
	// events up to sequence number through (bitrot; a no-op elsewhere).
	absorb(r *run, through uint64)
	// honest reports whether err is a failure this regime may cause:
	// from Apply or Flush (read false) or from Get (read true).
	// Anything else is a foreign error and fails the run.
	honest(err error, read bool) bool
	// failed reacts to an honest Apply/Flush failure: stop the
	// workload, or bring the store back before it continues.
	failed(r *run) (stop bool, err error)
	// settle ends the regime after the workload, leaves r.st open and
	// r.live/r.loose describing what it must hold, and checks the
	// regime's own contract clauses.
	settle(r *run) error
	// finish runs after the shared tail has closed the store.
	finish(r *run) error
}

func newNemesis(name string, rng *rand.Rand) (nemesis, error) {
	switch name {
	case "crash":
		return &crash{}, nil
	case "transient":
		return &transient{sameHandle: sameHandle{maxBackoff: 10 * time.Millisecond, attempts: 100}}, nil
	case "bitrot":
		return &bitrot{
			sameHandle: sameHandle{maxBackoff: 10 * time.Millisecond, attempts: 100},
			paranoid:   rng.Intn(2) == 0,
		}, nil
	case "enospc":
		// The attempt budget is sized so a workload squeeze (released
		// within milliseconds) never exhausts it, while the
		// never-released squeeze gives up in a few hundred milliseconds
		// of virtual time.
		return &enospc{
			sameHandle: sameHandle{maxBackoff: 5 * time.Millisecond, attempts: 60},
			budgeted:   rng.Intn(2) == 0,
		}, nil
	}
	return nil, fmt.Errorf("torture: unknown nemesis %q (want crash, transient, bitrot or enospc)", name)
}

// sameHandle is what the three live-handle regimes share: the captured
// event stream, a fast recovery budget, and nothing to do once the
// store is closed.
type sameHandle struct {
	buf        events.Buffer
	maxBackoff time.Duration
	attempts   int
}

func (s *sameHandle) tune(o *engine.Options) {
	// The contracts read the buffer mid-run, each time behind the
	// store's event barrier (store.syncEvents).
	o.EventListener = &s.buf
	// Tight backoffs keep iterations fast; the generous attempt budget
	// means a giveup on a fault that heals can only be a real bug.
	o.RecoveryBaseBackoff = time.Millisecond
	o.RecoveryMaxBackoff = s.maxBackoff
	o.MaxRecoveryAttempts = s.attempts
}

func (s *sameHandle) absorb(*run, uint64) {}
func (s *sameHandle) finish(*run) error   { return nil }

// requireRecoveryEvents asserts the event stream recorded at least one
// recovery engagement and one success, in that order. The success
// event trails the Healthy state the caller waited for, so it polls
// behind the event barrier.
func (s *sameHandle) requireRecoveryEvents(r *run) error {
	begin, success := -1, -1
	for deadline := r.clk.Now().Add(healTimeout); success < 0 && r.clk.Now().Before(deadline); r.clk.Sleep(200 * time.Microsecond) {
		r.st.syncEvents()
		for i, e := range s.buf.Events() {
			if e.Kind == events.KindRecoveryBegin && begin < 0 {
				begin = i
			}
			if e.Kind == events.KindRecoverySuccess && success < 0 {
				success = i
			}
		}
	}
	switch {
	case begin < 0:
		return r.violation("recovery was needed but there is no error_recovery_begin event")
	case success < 0:
		return r.violation("recovery was needed but there is no error_recovery_success event")
	case success < begin:
		return r.violation("error_recovery_success (event %d) precedes error_recovery_begin (event %d)", success, begin)
	}
	return nil
}
