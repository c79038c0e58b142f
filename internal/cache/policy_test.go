package cache

import (
	"math/rand"
	"testing"
)

// The simulation charges a device read for every cache miss, so which
// block a full shard evicts decides the modelled read path: these
// tests pin the policy — exact LRU per shard, byte-bounded, a replaced
// block moved to the front, an oversized block never stored — not how
// it is implemented.

// resident reports whether (fileNum, offset) is cached, without
// touching its recency or the hit and miss counts.
func resident(c *Cache, fileNum, offset uint64) bool {
	k := blockKey{fileNum, offset}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[k]
	return ok
}

// TestEvictionVictims replays one fixed sequence over three shards of
// 100 bytes each and checks, after every step, exactly which blocks
// are cached.
func TestEvictionVictims(t *testing.T) {
	c := New(numShards * 100)
	const f = 7
	// Offsets congruent mod numShards share a shard; a, b and c hold
	// three different shards.
	a := func(i uint64) uint64 { return i * numShards }
	b := func(i uint64) uint64 { return i*numShards + 1 }
	cc := func(i uint64) uint64 { return i*numShards + 2 }
	if c.shard(blockKey{f, a(0)}) != c.shard(blockKey{f, a(3)}) ||
		c.shard(blockKey{f, a(0)}) == c.shard(blockKey{f, b(0)}) ||
		c.shard(blockKey{f, b(0)}) == c.shard(blockKey{f, cc(0)}) ||
		c.shard(blockKey{f, a(0)}) == c.shard(blockKey{f, cc(0)}) {
		t.Fatal("test keys do not map to the shards the sequence assumes")
	}
	blob := make([]byte, 40) // two fit in a shard
	big := make([]byte, 70)
	type want struct {
		off uint64
		in  bool
	}
	check := func(step string, ws ...want) {
		t.Helper()
		for _, w := range ws {
			if got := resident(c, f, w.off); got != w.in {
				t.Fatalf("%s: block %d cached = %v, want %v", step, w.off, got, w.in)
			}
		}
	}
	get := func(off uint64, hit bool) {
		t.Helper()
		if _, ok := c.Get(f, off); ok != hit {
			t.Fatalf("Get(%d) hit = %v, want %v", off, ok, hit)
		}
	}

	c.Insert(f, a(0), blob)
	c.Insert(f, a(1), blob)
	c.Insert(f, b(0), blob)
	c.Insert(f, b(1), blob)
	c.Insert(f, cc(0), blob)
	check("fill", want{a(0), true}, want{a(1), true}, want{b(0), true}, want{b(1), true}, want{cc(0), true})

	get(a(0), true) // a(1) is now the older
	c.Insert(f, a(2), blob)
	check("a(2) evicts a(1)", want{a(0), true}, want{a(1), false}, want{a(2), true}, want{b(0), true}, want{b(1), true})
	get(a(1), false)

	get(b(0), true)
	c.Insert(f, b(2), blob)
	check("b(2) evicts b(1)", want{b(0), true}, want{b(1), false}, want{b(2), true}, want{a(0), true}, want{a(2), true})

	c.Insert(f, cc(1), blob)
	c.Insert(f, cc(2), blob)
	check("c(2) evicts c(0)", want{cc(0), false}, want{cc(1), true}, want{cc(2), true})

	// Replacing a(0) with a bigger block moves it to the front; the
	// shard is then over capacity and evicts a(2), the older.
	c.Insert(f, a(0), big)
	check("replace a(0)", want{a(0), true}, want{a(2), false})
	c.Insert(f, a(3), blob)
	check("a(3) evicts a(0)", want{a(0), false}, want{a(3), true})

	c.Insert(f, b(3), make([]byte, 101)) // larger than a shard: ignored
	check("oversized", want{b(3), false}, want{b(0), true}, want{b(2), true})

	get(cc(1), true)
	get(cc(0), false)
	get(b(3), false)
	if hits, misses := c.Stats(); hits != 3 || misses != 3 {
		t.Fatalf("Stats = %d hits, %d misses, want 3, 3", hits, misses)
	}
	if got := c.Used(); got != 40+40+40+40+40 {
		t.Fatalf("Used = %d, want 200", got)
	}
}

// TestEvictionReplay replays a seeded mix of Inserts (varied sizes,
// replacements, oversized blocks) and Gets across every shard against
// a per-shard LRU list kept here, checking every Get's outcome, the
// whole cached set every 97 steps, and the hit and miss totals and
// bytes used at the end.
func TestEvictionReplay(t *testing.T) {
	const perShard = 1000
	c := New(numShards * perShard)
	type key struct{ f, off uint64 }
	type model struct {
		lru  []key // front = most recent
		size map[key]int
		used int
	}
	models := map[*shard]*model{}
	modelOf := func(k key) *model {
		s := c.shard(blockKey{k.f, k.off})
		m := models[s]
		if m == nil {
			m = &model{size: map[key]int{}}
			models[s] = m
		}
		return m
	}
	toFront := func(m *model, k key) {
		for i, x := range m.lru {
			if x == k {
				copy(m.lru[1:i+1], m.lru[:i])
				m.lru[0] = k
				return
			}
		}
		m.lru = append([]key{k}, m.lru...)
	}

	rng := rand.New(rand.NewSource(42))
	var hits, misses int64
	all := map[key]bool{}
	for step := 0; step < 20000; step++ {
		k := key{uint64(1 + rng.Intn(3)), uint64(rng.Intn(200)) * 4096}
		all[k] = true
		m := modelOf(k)
		if rng.Intn(3) == 0 {
			n := 50 + rng.Intn(300)
			if rng.Intn(50) == 0 {
				n = perShard + 1
			}
			c.Insert(k.f, k.off, make([]byte, n))
			if n > perShard {
				continue
			}
			if old, ok := m.size[k]; ok {
				m.used -= old
			}
			m.size[k] = n
			m.used += n
			toFront(m, k)
			for m.used > perShard {
				victim := m.lru[len(m.lru)-1]
				m.lru = m.lru[:len(m.lru)-1]
				m.used -= m.size[victim]
				delete(m.size, victim)
			}
		} else {
			_, ok := c.Get(k.f, k.off)
			_, want := m.size[k]
			if ok != want {
				t.Fatalf("step %d: Get(%d, %d) hit = %v, want %v", step, k.f, k.off, ok, want)
			}
			if ok {
				hits++
				toFront(m, k)
			} else {
				misses++
			}
		}
		if step%97 == 0 {
			for k := range all {
				if _, want := modelOf(k).size[k]; resident(c, k.f, k.off) != want {
					t.Fatalf("step %d: block (%d, %d) cached = %v, want %v", step, k.f, k.off, !want, want)
				}
			}
		}
	}
	if h, m := c.Stats(); h != hits || m != misses {
		t.Fatalf("Stats = %d hits, %d misses, want %d, %d", h, m, hits, misses)
	}
	var used int
	for _, m := range models {
		used += m.used
	}
	if got := c.Used(); got != int64(used) {
		t.Fatalf("Used = %d, want %d", got, used)
	}
}
