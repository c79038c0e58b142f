package skiplist

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"xpointdb/internal/keys"
)

// checkStructure verifies the whole tower structure, which iteration
// over level 0 cannot see: every level is strictly sorted, every node
// linked on level i is also linked on level i-1 and is tall enough to
// be there, and level 0 holds exactly Count() nodes.
func checkStructure(t *testing.T, s *SkipList) {
	t.Helper()
	below := map[*node]bool{}
	for level := 0; level < maxHeight; level++ {
		on := map[*node]bool{}
		var prev *node
		for x := s.head.next[level].Load(); x != nil; x = x.next[level].Load() {
			if len(x.next) <= level {
				t.Fatalf("level %d: node of height %d linked", level, len(x.next))
			}
			if prev != nil && keys.Compare(prev.key, x.key) >= 0 {
				t.Fatalf("level %d: %s before %s", level, keys.String(prev.key), keys.String(x.key))
			}
			if level > 0 && !below[x] {
				t.Fatalf("level %d: %s is not on level %d", level, keys.String(x.key), level-1)
			}
			on[x] = true
			prev = x
		}
		if level == 0 && int64(len(on)) != s.Count() {
			t.Fatalf("level 0 holds %d nodes, Count() = %d", len(on), s.Count())
		}
		if level >= int(s.height.Load()) && len(on) > 0 {
			t.Fatalf("level %d in use above height %d", level, s.height.Load())
		}
		below = on
	}
}

// TestConcurrentInsertsInterleaved has 8 goroutines insert keys that
// interleave (goroutine w owns ids ≡ w mod 8, ascending), so at every
// moment the inserters are neighbours racing for the same splice on
// every level; TestConcurrentInserts' goroutines own disjoint ranges
// and mostly meet at the head.
func TestConcurrentInsertsInterleaved(t *testing.T) {
	s := New()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := i*workers + w
				s.Insert(ik(fmt.Sprintf("k%08d", id), uint64(id+1)), []byte("v"))
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count(), workers*per)
	}
	checkStructure(t, s)
	for id := 0; id < workers*per; id++ {
		if _, ok := s.Get(ik(fmt.Sprintf("k%08d", id), uint64(id+1))); !ok {
			t.Fatalf("k%08d missing", id)
		}
	}
}

// TestInsertTallerThanHeight links a node on levels the list has never
// used — where the splice's predecessor can only be head — into an
// empty and into a non-empty list.
func TestInsertTallerThanHeight(t *testing.T) {
	for _, filled := range []int{0, 500} {
		s := New()
		for id := 0; id < filled; id++ {
			s.Insert(ik(fmt.Sprintf("k%06d", (id*7919)%100003), uint64(id+1)), nil)
		}
		// Put the height generator in a state whose next draw is two
		// levels above anything in the list.
		want := int(s.height.Load()) + 2
		for state := uint64(1); ; state++ {
			s.rngState.Store(state)
			if s.randomHeight() >= want {
				s.rngState.Store(state)
				break
			}
		}
		s.Insert(ik("k050000x", 1<<40), nil)
		if int(s.height.Load()) < want {
			t.Fatalf("filled %d: height %d after a tower of ≥ %d", filled, s.height.Load(), want)
		}
		checkStructure(t, s)
		if top := s.head.next[want-1].Load(); top == nil || top.next[want-1].Load() != nil {
			t.Fatalf("filled %d: level %d should hold exactly the new node", filled, want-1)
		}
		if s.Count() != int64(filled)+1 {
			t.Fatalf("filled %d: Count = %d", filled, s.Count())
		}
	}
}

// TestInsertComparisonsLogarithmic bounds Insert's work without timing
// anything: over the last 1 000 of 65 536 random inserts the mean number
// of key comparisons stays under 4·log2(n). A search that walks level 0
// from the head needs about n/2 = 32 768.
func TestInsertComparisonsLogarithmic(t *testing.T) {
	const n = 64 << 10
	s := New()
	total := 0
	for i, k := range benchKeys(n, 2) {
		cmps := s.Insert(k, nil)
		if i >= n-1000 {
			total += cmps
		}
	}
	mean, bound := float64(total)/1000, 4*math.Log2(n)
	t.Logf("mean comparisons per insert at n=%d: %.1f (bound %.0f)", n, mean, bound)
	if mean > bound {
		t.Fatalf("mean comparisons per insert %.1f > 4·log2(n) = %.0f", mean, bound)
	}
	checkStructure(t, s)
}
