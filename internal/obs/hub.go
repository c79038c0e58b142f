// Package obs is the engine's ops plane: an embeddable HTTP server
// exposing the metrics, stats, health and event-stream surfaces the
// engine already collects in process — Prometheus text exposition on
// /metrics, the structured event log as Server-Sent Events on /events,
// StatsReport on /stats, the error-handler health on /healthz, and
// net/http/pprof on /debug/pprof.
//
// The paper's method is continuous visibility into per-level I/O,
// stalls and stage latency; this package is what makes that visibility
// available to an operator (or a dashboard) while the engine serves
// traffic, instead of only to code holding the *DB handle.
//
// The package deliberately knows nothing about the engine: the server
// is configured with callbacks, and the Hub is an events.Listener. The
// engine wires itself in (Options.ObsAddr), and any future network
// server (cmd/xpointserver) can mount the same Handler unchanged.
package obs

import (
	"sync"
	"sync/atomic"

	"xpointdb/internal/events"
)

// The hub's queue and ring sizes.
const (
	// DefaultRingSize is the replay ring capacity: how many recent
	// events a new SSE client receives on connect.
	DefaultRingSize = 512
	// DefaultSinkQueue bounds the queue between engine emitters and
	// the sink drain goroutine.
	DefaultSinkQueue = 4096
	// DefaultClientQueue bounds each SSE subscriber's buffer; a client
	// that falls further behind loses events (slow-client drop).
	DefaultClientQueue = 256
)

// HubConfig configures a Hub. The zero value is a hub with no sink.
type HubConfig struct {
	// Sink, if non-nil, receives every event from a dedicated drain
	// goroutine — never from the emitting goroutine, so a slow or
	// blocking sink (a JSON-lines file on a congested disk) cannot
	// stall the engine. When the queue is full the event is dropped
	// for the sink (counted, reported via OnSinkDrop) but still
	// reaches the ring and subscribers.
	Sink events.Listener
	// OnSinkDrop is called once per event dropped on the sink queue
	// (from the emitting goroutine; must be cheap and non-blocking).
	OnSinkDrop func()
}

// Hub fans the engine's event stream out to any number of SSE
// subscribers and one optional sink, without ever blocking the
// emitter. It implements events.Listener.
//
// Every event is assigned a hub sequence number and appended to a
// bounded in-memory ring; a new subscriber atomically receives the
// ring's contents as replay plus a live channel, so it sees recent
// history and then every subsequent event exactly once (unless it is
// too slow to keep up, in which case events are dropped for that
// subscriber and counted).
type Hub struct {
	cfg HubConfig

	mu     sync.Mutex
	ring   *ring
	seq    uint64
	subs   map[*Subscription]struct{}
	closed bool

	sinkQ   chan events.Event
	drainWG sync.WaitGroup

	// pending counts events handed to the drain goroutine but not yet
	// delivered to the sink; Sync waits for it to reach zero.
	pendingMu   sync.Mutex
	pendingCond *sync.Cond
	pending     int64

	sinkDropped   atomic.Int64
	clientDropped atomic.Int64
}

// NewHub returns a running hub. Call Close to stop the drain goroutine
// and disconnect subscribers.
func NewHub(cfg HubConfig) *Hub {
	h := &Hub{
		cfg:  cfg,
		ring: newRing(DefaultRingSize),
		subs: make(map[*Subscription]struct{}),
	}
	h.pendingCond = sync.NewCond(&h.pendingMu)
	if cfg.Sink != nil {
		h.sinkQ = make(chan events.Event, DefaultSinkQueue)
		h.drainWG.Add(1)
		go h.drain()
	}
	return h
}

// Emit assigns the next hub sequence number, appends the event to the
// replay ring, offers it to the sink queue and to every subscriber.
// It never blocks: full queues drop (with counters) instead.
func (h *Hub) Emit(e events.Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.seq++
	e.Seq = h.seq
	h.ring.append(e)
	if h.sinkQ != nil {
		select {
		case h.sinkQ <- e:
			h.pendingMu.Lock()
			h.pending++
			h.pendingMu.Unlock()
		default:
			h.sinkDropped.Add(1)
			if h.cfg.OnSinkDrop != nil {
				h.cfg.OnSinkDrop()
			}
		}
	}
	for sub := range h.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
			h.clientDropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// drain delivers queued events to the sink in emission order.
func (h *Hub) drain() {
	defer h.drainWG.Done()
	for e := range h.sinkQ {
		h.cfg.Sink.Emit(e)
		h.pendingMu.Lock()
		h.pending--
		if h.pending == 0 {
			h.pendingCond.Broadcast()
		}
		h.pendingMu.Unlock()
	}
}

// Sync blocks until every event accepted for the sink so far has been
// delivered to it — the barrier that makes the asynchronous sink
// observably caught up — and returns the sequence number of the last
// event emitted before the call: every event up to it has reached the
// sink (or was dropped, and counted, on a full queue).
func (h *Hub) Sync() uint64 {
	h.mu.Lock()
	seq := h.seq
	h.mu.Unlock()
	h.pendingMu.Lock()
	for h.pending > 0 {
		h.pendingCond.Wait()
	}
	h.pendingMu.Unlock()
	return seq
}

// Close stops the hub: subsequent Emits are discarded, every
// subscriber's channel is closed, and the sink drain is flushed to
// completion before Close returns.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for sub := range h.subs {
		close(sub.ch)
		delete(h.subs, sub)
	}
	if h.sinkQ != nil {
		close(h.sinkQ)
	}
	h.mu.Unlock()
	h.drainWG.Wait()
}

// SinkDropped returns the number of events dropped because the sink
// queue was full.
func (h *Hub) SinkDropped() int64 { return h.sinkDropped.Load() }

// ClientDropped returns the total number of events dropped across all
// subscribers because their buffers were full.
func (h *Hub) ClientDropped() int64 { return h.clientDropped.Load() }

// Subscription is one subscriber's view of the stream: Replay holds
// the ring contents at subscribe time (oldest first), and C delivers
// every later event. C is closed when the hub closes or Cancel is
// called; events are silently dropped (and counted) while C's buffer
// is full.
type Subscription struct {
	// Replay is the recent-event history captured atomically with the
	// subscription: the live channel carries only events with Seq
	// greater than the last replay event's.
	Replay []events.Event

	h       *Hub
	ch      chan events.Event
	dropped atomic.Int64
}

// C returns the live event channel.
func (s *Subscription) C() <-chan events.Event { return s.ch }

// Dropped returns how many events this subscriber lost to slow-client
// drop so far.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Cancel unsubscribes and closes C. Safe to call more than once and
// after the hub closed.
func (s *Subscription) Cancel() {
	s.h.mu.Lock()
	if _, ok := s.h.subs[s]; ok {
		delete(s.h.subs, s)
		close(s.ch)
	}
	s.h.mu.Unlock()
}

// Subscribe registers a new subscriber. The replay snapshot and the
// live-channel registration happen atomically, so the subscriber sees
// every event exactly once (ring history first, then live), with no
// gap and no duplicate at the boundary.
func (h *Hub) Subscribe() *Subscription {
	h.mu.Lock()
	sub := &Subscription{
		h:  h,
		ch: make(chan events.Event, DefaultClientQueue),
	}
	sub.Replay = h.ring.snapshot()
	if h.closed {
		close(sub.ch)
	} else {
		h.subs[sub] = struct{}{}
	}
	h.mu.Unlock()
	return sub
}
