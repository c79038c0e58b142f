package torture

import (
	"errors"
	"strings"

	"xpointdb/internal/engine"
	"xpointdb/internal/events"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/sstable"
)

// bitrot is the silent-corruption regime; contract clauses 1–2 in the
// package comment.
type bitrot struct {
	sameHandle
	paranoid bool
	armed    bool
	mode     string
	cursor   int // buffered events already absorbed into r.loose
	// base is how many buffered events earlier handles emitted: a
	// reopened store's hub numbers its events from 1 again.
	base uint64
}

func (b *bitrot) tune(o *engine.Options) {
	b.sameHandle.tune(o)
	b.base = uint64(b.buf.Len())
	o.ParanoidFileChecks = b.paranoid
	o.ScrubBytesPerSec = 1 << 30 // unpaced: let the scrubber race the reads
}

func (b *bitrot) start(*run) {}

// before keeps the first half of the workload clean — two flushes
// guarantee live SSTs — arms the rot at the midpoint, and from then on
// absorbs declared losses so the spot read in front of every op judges
// against what the engine has admitted to.
func (b *bitrot) before(r *run, i int) error {
	clean := r.cfg.Ops / 2
	if i == clean/2 || i == clean {
		if err := r.st.Flush(); err != nil {
			return r.violation("clean-phase flush failed: %v", err)
		}
	}
	if i == clean {
		b.arm(r)
	}
	if b.armed {
		b.absorb(r, r.st.syncEvents())
	}
	return nil
}

func (b *bitrot) arm(r *run) {
	b.armed, b.mode = true, "transient"
	if r.rng.Float64() < 0.3 {
		// Persistent: one file's media is dying — every read of it
		// flips a bit until the file is repaired away or declared lost.
		names, err := r.ffs.List()
		var ssts []string
		for _, n := range names {
			if strings.HasSuffix(n, ".sst") {
				ssts = append(ssts, n)
			}
		}
		if err == nil && len(ssts) > 0 {
			victim := ssts[r.rng.Intn(len(ssts))]
			r.ffs.AddRule(faultfs.Rule{
				Ops: []faultfs.Op{faultfs.OpReadAt}, Path: victim,
				Fault: faultfs.Fault{Bitrot: true},
			})
			b.mode = "persistent"
			r.cfg.Logf("bitrot: persistent rot armed on %s", victim)
			return
		}
	}
	k := 1 + r.rng.Int63n(3)
	r.ffs.AddRule(faultfs.Rule{
		Ops: []faultfs.Op{faultfs.OpReadAt}, Path: r.st.glob("*.sst"), FailNTimes: k,
		Fault: faultfs.Fault{Bitrot: true},
	})
	r.cfg.Logf("bitrot: transient rot armed (FailNTimes=%d)", k)
}

// absorb moves every key inside a data_loss range declared in the
// events up to sequence number through into the loose set: the one
// case where a non-oracle read result is honest. A later acknowledged
// write to the key pins it down again.
//
// The engine emits a declaration before it drops the file, so a read
// that observed the drop returns after the declaration was sequenced,
// and the driver absorbs up to the sequence number read at the
// response (run.spot). A declaration sequenced after the response
// never excuses the read, and no key outside a declared range is ever
// loose, so a wrong read the engine has not admitted to is still a
// violation. The buffer renumbers events 1, 2, … as they arrive, which
// matches base plus the hub's numbering only if the queue dropped none;
// settle checks that.
func (b *bitrot) absorb(r *run, through uint64) {
	if b.buf.Len() == b.cursor {
		return // nothing new; Events copies the whole buffer
	}
	evs := b.buf.Events()
	for ; b.cursor < len(evs) && evs[b.cursor].Seq <= b.base+through; b.cursor++ {
		e := evs[b.cursor]
		if e.Kind != events.KindDataLoss || e.Integrity == nil {
			continue
		}
		mark := func(k string) {
			// Events of a sharded store carry the 1-based shard whose
			// file was lost.
			if e.Shard > 0 && r.st.shardOf(k) != e.Shard-1 {
				return
			}
			if k >= e.Integrity.Smallest && k <= e.Integrity.Largest {
				r.loose[k] = true
			}
		}
		for s := 0; s < r.st.shards(); s++ {
			mark(r.st.marker(s))
		}
		for i := 0; i < r.cfg.Keys; i++ {
			mark(keyName(i))
		}
	}
}

func (b *bitrot) spotRate() float64 {
	if b.armed {
		return 0.30 // read-heavy under rot
	}
	return 0.02
}

// Before the rot arms nothing may fail; under rot a checksum failure
// (or the latch it sets) is the honest outcome, on reads too.
func (b *bitrot) honest(err error, _ bool) bool {
	return b.armed && (sstable.IsCorruption(err) || errors.Is(err, faultfs.ErrInjected) ||
		errors.Is(err, engine.ErrBackground))
}

func (b *bitrot) failed(r *run) (bool, error) { return false, r.waitHealthy(false) }

func (b *bitrot) settle(r *run) error {
	if err := r.waitHealthy(false); err != nil {
		return err
	}
	b.absorb(r, r.st.syncEvents())
	r.cfg.Logf("bitrot(%s): lostkeys=%d", b.mode, len(r.loose))
	c := r.logCounters()
	if c.eventsDropped > 0 {
		return r.violation("the event queue dropped %d events: declared losses cannot be matched to reads", c.eventsDropped)
	}
	if c.giveups > 0 {
		return r.violation("recovery gave up on corruption (%d giveups)", c.giveups)
	}
	if c.quarantined > 0 {
		if c.repaired+c.dataLoss == 0 {
			return r.violation("%d files quarantined but neither repaired nor declared lost", c.quarantined)
		}
		return b.requireRecoveryEvents(r)
	}
	return nil
}
