package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetMissThenHit(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(1, 0, []byte("data"))
	v, ok := c.Get(1, 0)
	if !ok || string(v) != "data" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d hits, %d misses", h, m)
	}
}

func TestReplaceSameKey(t *testing.T) {
	c := New(1 << 20)
	c.Insert(1, 0, []byte("old"))
	c.Insert(1, 0, []byte("newer"))
	v, ok := c.Get(1, 0)
	if !ok || string(v) != "newer" {
		t.Fatalf("Get after replace = %q", v)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	c := New(16 * 1024) // 1 KiB per shard
	blob := make([]byte, 512)
	for i := 0; i < 1000; i++ {
		c.Insert(uint64(i), 0, blob)
	}
	if used := c.Used(); used > 16*1024 {
		t.Fatalf("Used = %d exceeds capacity", used)
	}
}

func TestLRUOrder(t *testing.T) {
	// One shard: capacity for exactly 2 entries; keys chosen to map
	// to the same shard would be fiddly, so use a big cache and
	// verify recency via a same-shard triple.
	c := New(numShards * 100)
	// Keys with identical fileNum land in the shard chosen by
	// offset; use offsets that collide mod numShards.
	k1, k2, k3 := uint64(0), uint64(numShards), uint64(2*numShards)
	blob := make([]byte, 40)
	c.Insert(7, k1, blob)
	c.Insert(7, k2, blob)
	c.Get(7, k1) // make k1 most recent
	c.Insert(7, k3, blob)
	if _, ok := c.Get(7, k1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(7, k2); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestOversizedInsertIgnored(t *testing.T) {
	c := New(1024)
	c.Insert(1, 0, make([]byte, 10*1024))
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("oversized entry cached")
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New(0)
	c.Insert(1, 0, []byte("x"))
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("zero-capacity cache stored data")
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1 << 20)
	for off := uint64(0); off < 10; off++ {
		c.Insert(5, off*4096, []byte("block"))
		c.Insert(6, off*4096, []byte("block"))
	}
	c.EvictFile(5)
	for off := uint64(0); off < 10; off++ {
		if _, ok := c.Get(5, off*4096); ok {
			t.Fatal("evicted file block still cached")
		}
		if _, ok := c.Get(6, off*4096); !ok {
			t.Fatal("unrelated file block evicted")
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := uint64(i % 100)
				c.Insert(key, uint64(w), []byte(fmt.Sprintf("v%d", i)))
				c.Get(key, uint64(w))
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentGetInsertSameKey is two readers missing on one block:
// both insert it while others read it. Under -race it fails if Get
// reads entry.data outside the shard lock.
func TestConcurrentGetInsertSameKey(t *testing.T) {
	c := New(1 << 20)
	c.Insert(7, 0, []byte("block"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(insert bool) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if insert {
					c.Insert(7, 0, []byte("block"))
				} else if v, ok := c.Get(7, 0); !ok || string(v) != "block" {
					t.Errorf("Get = %q, %v", v, ok)
					return
				}
			}
		}(w%2 == 0)
	}
	wg.Wait()
}

func TestUsedAccounting(t *testing.T) {
	c := New(1 << 20)
	c.Insert(1, 0, make([]byte, 100))
	c.Insert(1, 4096, make([]byte, 200))
	if got := c.Used(); got != 300 {
		t.Fatalf("Used = %d, want 300", got)
	}
	c.Insert(1, 0, make([]byte, 50)) // replace shrinks
	if got := c.Used(); got != 250 {
		t.Fatalf("Used after replace = %d, want 250", got)
	}
}

// TestAdmitNeverEvicts checks Admit stores a copy while its shard has
// room and refuses, leaving the shard as it was, once it has none or
// the block is already cached.
func TestAdmitNeverEvicts(t *testing.T) {
	c := New(numShards * 100) // 100 bytes per shard
	// Offsets that are equal mod numShards share a shard.
	k1, k2, k3 := uint64(0), uint64(numShards), uint64(2*numShards)
	data := []byte("0123456789012345678901234567890123456789") // 40 bytes
	if !c.Admit(7, k1, data) || !c.Admit(7, k2, data) {
		t.Fatal("Admit refused a block its shard had room for")
	}
	data[0] = 'x'
	if v, ok := c.Get(7, k1); !ok || v[0] != '0' {
		t.Fatalf("Admit kept the caller's slice, not a copy: %q", v)
	}
	if c.Admit(7, k3, data) {
		t.Fatal("Admit took a block its shard had no room for")
	}
	if c.Admit(7, k1, data) {
		t.Fatal("Admit replaced a cached block")
	}
	for _, k := range []uint64{k1, k2} {
		if _, ok := c.Get(7, k); !ok {
			t.Fatalf("Admit evicted block %d", k)
		}
	}
	if _, ok := c.Get(7, k3); ok {
		t.Fatal("refused block is cached")
	}
	if used := c.Used(); used != 80 {
		t.Fatalf("Used = %d, want 80", used)
	}
}
