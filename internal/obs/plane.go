package obs

import (
	"io"

	"xpointdb/internal/events"
)

// Plane is one store's event path plus its optional HTTP server: the
// single place that decides how emitted events reach the configured
// listener and the /events subscribers. A store builds it first thing
// in Open, so recovery-time events flow through the same path, emits
// into Listener(), calls Serve at the tail of Open and Close at the
// tail of its own Close.
type Plane struct {
	addr string
	ev   events.Listener
	hub  *Hub
	srv  *Server
}

// NewPlane wires a store's options — its event listener (may be nil),
// the listener's sink queue length, the ops-server address ("" = none)
// and a callback counting events the sink queue drops — into one of
// three shapes:
//
//   - No listener, no addr: Listener() is nil and emission is free.
//   - Async sink (sinkQueue >= 0, the default): a Hub sits between the
//     store and the listener. Emitters never block — the hub hands
//     events to a dedicated drain goroutine through a bounded queue,
//     dropping (and calling onSinkDrop) under sustained backpressure.
//     The same hub feeds /events when the server is on.
//   - Synchronous sink (sinkQueue < 0): the listener is invoked inline
//     from the emitting goroutine — for tests and oracles that assert
//     on events mid-run. If addr is also set, a hub with no sink rides
//     alongside via events.Tee so /events still works.
func NewPlane(listener events.Listener, sinkQueue int, addr string, onSinkDrop func()) *Plane {
	p := &Plane{addr: addr, ev: listener}
	async := listener != nil && sinkQueue >= 0
	if !async && addr == "" {
		return p
	}
	hcfg := HubConfig{SinkQueue: sinkQueue}
	if async {
		hcfg.Sink = listener
		hcfg.OnSinkDrop = onSinkDrop
	}
	p.hub = NewHub(hcfg)
	if listener != nil && !async {
		p.ev = events.Tee(listener, p.hub)
	} else {
		p.ev = p.hub
	}
	return p
}

// Listener is what the store emits into; nil when nothing listens.
func (p *Plane) Listener() events.Listener { return p.ev }

// Serve binds the HTTP server on the configured address (a no-op
// without one) over the store's three read surfaces. Call it once the
// store is fully open, so no handler can observe a half-open store.
func (p *Plane) Serve(metrics func(io.Writer), stats func() string, health func() (ok bool, detail string)) error {
	if p.addr == "" {
		return nil
	}
	srv, err := Serve(p.addr, Config{MetricsText: metrics, StatsText: stats, Health: health, Hub: p.hub})
	if err != nil {
		return err
	}
	p.srv = srv
	return nil
}

// Addr returns the server's bound address ("" when not serving). With
// an Addr of ":0" this is how callers discover the ephemeral port.
func (p *Plane) Addr() string {
	if p.srv == nil {
		return ""
	}
	return p.srv.Addr()
}

// Sync blocks until every event emitted so far has been delivered to
// the configured listener. Only meaningful with the async sink; a
// no-op otherwise.
func (p *Plane) Sync() {
	if p.hub != nil {
		p.hub.Sync()
	}
}

// Close tears the plane down once the store's background work has
// exited. Order matters: closing the hub first drains the sink and
// closes every SSE subscriber channel, which unblocks the /events
// handlers, so the server's graceful shutdown completes immediately
// instead of waiting out its timeout.
func (p *Plane) Close() {
	if p.hub != nil {
		p.hub.Close()
	}
	if p.srv != nil {
		_ = p.srv.Close()
	}
}
