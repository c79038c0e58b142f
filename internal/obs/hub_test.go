package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"xpointdb/internal/events"
)

func mkEvent(i int) events.Event {
	return events.Event{
		TS:   time.Unix(0, int64(i)),
		Kind: events.KindWALSync,
		WALSync: &events.WALSync{
			Bytes: int64(i),
		},
	}
}

func TestHubSeqAndRingReplay(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	const emitted = DefaultRingSize + 12
	for i := 1; i <= emitted; i++ {
		h.Emit(mkEvent(i))
	}
	sub := h.Subscribe()
	defer sub.Cancel()
	if len(sub.Replay) != DefaultRingSize {
		t.Fatalf("replay len = %d, want ring size %d", len(sub.Replay), DefaultRingSize)
	}
	// The most recent DefaultRingSize events, in order, with
	// hub-assigned seqs 13..emitted.
	for i, e := range sub.Replay {
		want := uint64(13 + i)
		if e.Seq != want {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	// A live event lands on the channel with the next seq, no gap.
	h.Emit(mkEvent(emitted + 1))
	select {
	case e := <-sub.C():
		if e.Seq != emitted+1 {
			t.Fatalf("live Seq = %d, want %d", e.Seq, emitted+1)
		}
	case <-time.After(time.Second):
		t.Fatal("no live event delivered")
	}
}

func TestHubReplayBelowCapacity(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	for i := 1; i <= 3; i++ {
		h.Emit(mkEvent(i))
	}
	sub := h.Subscribe()
	defer sub.Cancel()
	if len(sub.Replay) != 3 {
		t.Fatalf("replay len = %d, want 3", len(sub.Replay))
	}
	for i, e := range sub.Replay {
		if e.Seq != uint64(i+1) {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}

func TestHubSlowClientDrop(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	sub := h.Subscribe()
	defer sub.Cancel()
	for i := 1; i <= DefaultClientQueue+6; i++ {
		h.Emit(mkEvent(i))
	}
	if got := sub.Dropped(); got != 6 {
		t.Fatalf("sub.Dropped = %d, want 6", got)
	}
	if got := h.ClientDropped(); got != 6 {
		t.Fatalf("hub.ClientDropped = %d, want 6", got)
	}
	// The buffered events are the first DefaultClientQueue
	// (drop-newest semantics).
	for want := uint64(1); want <= DefaultClientQueue; want++ {
		e := <-sub.C()
		if e.Seq != want {
			t.Fatalf("buffered Seq = %d, want %d", e.Seq, want)
		}
	}
}

func TestHubSinkOrderAndSync(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []uint64
	)
	sink := events.Func(func(e events.Event) {
		mu.Lock()
		seen = append(seen, e.Seq)
		mu.Unlock()
	})
	h := NewHub(HubConfig{Sink: sink})
	for i := 1; i <= 100; i++ {
		h.Emit(mkEvent(i))
	}
	h.Sync()
	mu.Lock()
	if len(seen) != 100 {
		mu.Unlock()
		t.Fatalf("sink saw %d events, want 100", len(seen))
	}
	for i, s := range seen {
		if s != uint64(i+1) {
			mu.Unlock()
			t.Fatalf("sink order broken at %d: seq %d", i, s)
		}
	}
	mu.Unlock()
	h.Close()
}

func TestHubSinkBackpressureDrops(t *testing.T) {
	release := make(chan struct{})
	var delivered int
	sink := events.Func(func(e events.Event) {
		<-release
		delivered++
	})
	drops := 0
	h := NewHub(HubConfig{Sink: sink, OnSinkDrop: func() { drops++ }})
	// Queue capacity plus one event parked in the drain goroutine: emit
	// enough that some must drop, and verify Emit never blocks.
	const emitted = DefaultSinkQueue + 10
	done := make(chan struct{})
	go func() {
		for i := 1; i <= emitted; i++ {
			h.Emit(mkEvent(i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Emit blocked on a slow sink")
	}
	if h.SinkDropped() == 0 || drops == 0 {
		t.Fatalf("expected sink drops, got counter=%d callback=%d", h.SinkDropped(), drops)
	}
	close(release)
	h.Close()
	if int64(delivered)+h.SinkDropped() != emitted {
		t.Fatalf("delivered %d + dropped %d != emitted %d", delivered, h.SinkDropped(), emitted)
	}
}

func TestHubCloseDrainsSink(t *testing.T) {
	var n int
	sink := events.Func(func(e events.Event) {
		time.Sleep(time.Millisecond)
		n++
	})
	h := NewHub(HubConfig{Sink: sink})
	for i := 1; i <= 50; i++ {
		h.Emit(mkEvent(i))
	}
	h.Close()
	if n != 50 {
		t.Fatalf("Close returned before sink drained: %d/50", n)
	}
	// Emit after close is a no-op, subscribe returns a closed channel.
	h.Emit(mkEvent(51))
	sub := h.Subscribe()
	if _, ok := <-sub.C(); ok {
		t.Fatal("subscription channel open after hub close")
	}
	sub.Cancel() // must not panic
}

func TestHubConcurrentChurn(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Emit(mkEvent(w*1_000_000 + i))
				}
			}
		}(w)
	}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sub := h.Subscribe()
				prev := uint64(0)
				for _, e := range sub.Replay {
					if e.Seq <= prev {
						panic(fmt.Sprintf("replay not increasing: %d after %d", e.Seq, prev))
					}
					prev = e.Seq
				}
				// Drain a few live events, then churn.
				for k := 0; k < 5; k++ {
					select {
					case e := <-sub.C():
						if e.Seq <= prev {
							panic(fmt.Sprintf("live seq %d not after replay %d", e.Seq, prev))
						}
						prev = e.Seq
					case <-time.After(10 * time.Millisecond):
					}
				}
				sub.Cancel()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
