package engine

import "testing"

// TestWindowPoolBounds: the free list hands back the smallest window
// that fits, and never keeps more than maxFreeWindows windows or
// maxFreeWindowBytes of capacity, dropping the smallest first.
func TestWindowPoolBounds(t *testing.T) {
	var p windowPool
	small, big := p.get(1000), p.get(3*windowAlign+1)
	if cap(small) != windowAlign || cap(big) != 4*windowAlign {
		t.Fatalf("capacities %d and %d, want them rounded up to %d and %d", cap(small), cap(big), windowAlign, 4*windowAlign)
	}
	p.put(big)
	p.put(small)
	if w := p.get(500); &w[:1][0] != &small[:1][0] || len(w) != 500 {
		t.Fatal("get did not hand back the smallest window that fits")
	}
	if w := p.get(2 * windowAlign); &w[:1][0] != &big[:1][0] {
		t.Fatal("get did not reuse the window that fits")
	}

	for i := 0; i < 2*maxFreeWindows; i++ {
		p.put(make([]byte, 0, windowAlign*(i+1)))
		if len(p.free) > maxFreeWindows || p.bytes > maxFreeWindowBytes {
			t.Fatalf("after %d puts: %d windows, %d bytes", i+1, len(p.free), p.bytes)
		}
	}
	for _, w := range p.free {
		if cap(w) <= maxFreeWindows*windowAlign {
			t.Fatalf("kept a %d-byte window while dropping larger ones", cap(w))
		}
	}
	p.put(make([]byte, 0, maxFreeWindowBytes+1))
	if p.bytes > maxFreeWindowBytes {
		t.Fatalf("kept %d bytes", p.bytes)
	}
}
