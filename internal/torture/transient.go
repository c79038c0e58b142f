package torture

import (
	"errors"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/faultfs"
)

// transient is the self-healing-fault regime; contract clauses 1–3 in
// the package comment.
type transient struct {
	sameHandle
	episodes map[int]faultfs.Rule // op index → the rule that arms there
}

// start schedules 2–5 fault episodes at random op indices. Each arms
// one transient rule; all heal on their own, so recovery must always
// win eventually.
func (t *transient) start(r *run) {
	rng := r.rng
	t.episodes = map[int]faultfs.Rule{}
	for n := 2 + rng.Intn(4); n > 0; n-- {
		at := rng.Intn(r.cfg.Ops)
		var rule faultfs.Rule
		switch rng.Intn(5) {
		case 0: // hard: WAL sync fails 1-2 times
			rule = faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: r.st.glob("*.log"), FailNTimes: 1 + rng.Int63n(2)}
		case 1: // hard: MANIFEST sync fails once (forces a manifest roll)
			rule = faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: r.st.glob("MANIFEST-*"), FailNTimes: 1}
		case 2: // soft-or-probe: WAL create fails once (rotation retry, or a failed first recovery probe)
			rule = faultfs.Rule{Ops: []faultfs.Op{faultfs.OpCreate}, Path: r.st.glob("*.log"), FailNTimes: 1}
		case 3: // soft: SST create fails 1-2 times (flush retries in place)
			rule = faultfs.Rule{Ops: []faultfs.Op{faultfs.OpCreate}, Path: r.st.glob("*.sst"), FailNTimes: 1 + rng.Int63n(2)}
		case 4: // hard, time-bounded: every WAL sync fails for a short window
			rule = faultfs.Rule{Ops: []faultfs.Op{faultfs.OpSync}, Path: r.st.glob("*.log"),
				HealAfter: time.Duration(1+rng.Intn(8)) * time.Millisecond}
		}
		t.episodes[at] = rule
	}
}

func (t *transient) before(r *run, i int) error {
	if rule, ok := t.episodes[i]; ok {
		r.ffs.AddRule(rule)
		r.cfg.Logf("op %d: %v %s armed (FailNTimes=%d HealAfter=%v)", i, rule.Ops, rule.Path, rule.FailNTimes, rule.HealAfter)
	}
	return nil
}

func (t *transient) spotRate() float64 { return 0.02 }

func (t *transient) honest(err error, read bool) bool {
	return !read && (errors.Is(err, faultfs.ErrInjected) || errors.Is(err, engine.ErrBackground))
}

// The write was not acknowledged; recovery must bring the store back
// without a reopen before the workload continues.
func (t *transient) failed(r *run) (bool, error) { return false, r.waitHealthy(false) }

func (t *transient) settle(r *run) error {
	// A FailNTimes rule armed near the end of the workload may hold
	// charges that never fired (a WAL-sync rule only fires on sync'd
	// applies). Such a rule is not self-healing — left in place it would
	// fault the tail, which asserts on a clean device. The contract
	// covers faults injected while the workload runs, so drop the
	// leftovers.
	r.ffs.ClearRules()
	if err := r.waitHealthy(false); err != nil {
		return err
	}
	c := r.logCounters()
	if c.giveups > 0 {
		return r.violation("recovery gave up on a transient fault (%d giveups)", c.giveups)
	}
	if c.hard > 0 {
		if c.successes < 1 {
			return r.violation("%d hard errors latched but no recovery success recorded", c.hard)
		}
		return t.requireRecoveryEvents(r)
	}
	return nil
}
