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
// the ops-server address ("" = none) and a callback counting events the
// sink queue drops — into one of two shapes:
//
//   - No listener, no addr: Listener() is nil and emission is free.
//   - Otherwise a Hub is what the store emits into. Emitters never
//     block: the hub hands events to the listener from a dedicated
//     drain goroutine through a bounded queue (DefaultSinkQueue),
//     dropping (and calling onSinkDrop) under sustained backpressure,
//     and Sync is the barrier behind which the listener has seen
//     everything emitted so far. The same hub feeds /events when the
//     server is on.
func NewPlane(listener events.Listener, addr string, onSinkDrop func()) *Plane {
	p := &Plane{addr: addr}
	if listener == nil && addr == "" {
		return p
	}
	p.hub = NewHub(HubConfig{Sink: listener, OnSinkDrop: onSinkDrop})
	p.ev = p.hub
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
// the configured listener, and returns the hub sequence number of the
// last of them (0 when nothing was emitted or nothing listens).
func (p *Plane) Sync() uint64 {
	if p.hub == nil {
		return 0
	}
	return p.hub.Sync()
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
