package engine

import (
	"sync/atomic"

	"xpointdb/internal/bgpool"
	"xpointdb/internal/cache"
	"xpointdb/internal/clock"
	"xpointdb/internal/events"
	"xpointdb/internal/obs"
	"xpointdb/internal/throttle"
)

// Shared is what the engines of one store have in common, and the one
// place those resources are built and closed (DESIGN §16); their facts
// are the sharedFamilies and cacheFamilies tables (prometheus.go).
// Every engine opens inside a Shared by index: Open makes a set of one
// that the engine owns and closes with itself; a sharded store builds
// one with NewShared, opens its N engines in it and closes it last.
// Whoever called NewShared serves Plane and calls Close.
type Shared struct {
	Blocks     *cache.Cache         // nil when Options.BlockCacheSize is 0
	Pool       *bgpool.Pool         // every flush and compaction runs under one of its tokens
	Controller *throttle.Controller // one delayed-write rate; the worst engine's stall state governs
	Space      *SpaceManager        // nil without Options.MaxAllowedSpace
	Plane      *obs.Plane           // event path and HTTP ops plane
	// EventsDropped counts events Plane's bounded sink queue lost.
	EventsDropped atomic.Int64

	clk     clock.Clock
	engines int
}

// NewShared builds the resources opts describes for a set of engines
// engines strong. poolSlots sizes the background pool; 0 picks the
// default: max(2, engines) across several engines, so one of them can
// never be starved, and 1 + MaxSubcompactions for a lone engine — its
// flush plus every lane of its one compaction — which therefore never
// parks on the pool.
func NewShared(opts Options, engines, poolSlots int) *Shared {
	opts = opts.withDefaults()
	sh := &Shared{clk: opts.Clock, engines: engines}
	if opts.BlockCacheSize > 0 {
		sh.Blocks = cache.New(opts.BlockCacheSize)
	}
	if poolSlots <= 0 {
		poolSlots = max(2, engines)
		if engines == 1 {
			poolSlots = 1 + opts.MaxSubcompactions
		}
	}
	sh.Pool = bgpool.New(sh.clk, poolSlots)
	// The byte budget is device-wide, not per engine: sharers charge
	// one budget.
	if opts.MaxAllowedSpace > 0 {
		sh.Space = NewSpaceManager(opts.MaxAllowedSpace)
	}
	// Built before any engine opens, so recovery-time events take the
	// same path as every later one.
	sh.Plane = obs.NewPlane(opts.EventListener, opts.ObsAddr, func() { sh.EventsDropped.Add(1) })
	tcfg := throttle.Config{Mode: opts.ThrottleMode}
	if sh.Plane.Listener() != nil {
		tcfg.RateChanged = sh.emitRateChange
	}
	sh.Controller = throttle.New(sh.clk, tcfg)
	return sh
}

// tag is the 1-based mark engine i leaves on what it shares with the
// others — the Shard field of its events and the salt of its block
// cache keys; 0, no mark, when the set has one engine.
func (sh *Shared) tag(i int) int {
	if sh.engines == 1 {
		return 0
	}
	return i + 1
}

// listener returns what engine i emits into: the plane's listener,
// behind a forwarder stamping the engine's tag when it has one. Nil
// when nothing listens, so emission stays free.
func (sh *Shared) listener(i int) events.Listener {
	ev, tag := sh.Plane.Listener(), sh.tag(i)
	if ev == nil || tag == 0 {
		return ev
	}
	return events.Func(func(e events.Event) {
		e.Shard = tag
		ev.Emit(e)
	})
}

// emitRateChange surfaces one Algorithm 1 Dec/Inc step of the
// controller (its RateChanged callback). Shard stays 0: the rate is a
// property of the whole set.
func (sh *Shared) emitRateChange(oldRate, newRate float64, behind bool) {
	factor := throttle.Inc
	if behind {
		factor = throttle.Dec
	}
	sh.Plane.Listener().Emit(events.Event{
		TS:   sh.clk.Now(),
		Kind: events.KindRateChange,
		Rate: &events.Rate{OldRate: oldRate, NewRate: newRate, Factor: factor, Behind: behind},
	})
}

// Close tears down the ops plane, the one resource that holds
// goroutines and a socket. Call it after every engine of the set has
// closed: their event streams are complete by then.
func (sh *Shared) Close() { sh.Plane.Close() }
