package engine

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"xpointdb/internal/clock"
	"xpointdb/internal/keys"
	"xpointdb/internal/memtable"
	"xpointdb/internal/sstable"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

var updateCmps = flag.Bool("update", false, "rewrite testdata/cmps_golden.txt instead of diffing against it")

const cmpsGoldenPath = "testdata/cmps_golden.txt"

// TestCompareCountGolden pins the key comparisons a point lookup makes
// in an SST and in a memtable. costmodel.ChargeCompares turns those
// counts into the simulator's modelled Get latency, so a read-path
// change that alters the search order alters the modelled system; it
// must fail here, not pass unnoticed. The table and the memtable hold
// the same seeded 5,000 entries, probed once for every key and once for
// each of 5,000 absent keys. Each probe sequence is pinned by its
// total, its distribution and a hash of every per-probe count in
// order. Regenerate with -update only when the modelled system is meant
// to change, and say why.
func TestCompareCountGolden(t *testing.T) {
	const entries, misses = 5000, 5000
	rng := rand.New(rand.NewSource(42))
	ids := rng.Perm(4 * entries)
	present, absent := ids[:entries], ids[entries:entries+misses]
	sort.Ints(present)
	user := func(id int) []byte { return []byte(fmt.Sprintf("user%012d", id)) }
	values := make([][]byte, entries)
	for i := range values {
		values[i] = make([]byte, 1+rng.Intn(300))
		rng.Read(values[i])
	}

	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	f, err := fs.Create("golden.sst")
	if err != nil {
		t.Fatal(err)
	}
	b := sstable.NewBuilder(f, sstable.DefaultBuilderOptions())
	mem := memtable.New(1 << 30)
	for i, id := range present {
		kind := keys.KindSet
		if i%17 == 0 {
			kind = keys.KindDelete
		}
		seq := uint64(i + 1)
		if err := b.Add(keys.Make(user(id), seq, kind), values[i]); err != nil {
			t.Fatal(err)
		}
		mem.Add(seq, kind, user(id), values[i])
	}
	size, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open("golden.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sstable.NewReader(rf, size, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	probes := append(append([]int(nil), present...), absent...)
	sst := make([]int, len(probes))
	mt := make([]int, len(probes))
	for i, id := range probes {
		_, _, cmps, _, err := r.Get(keys.SearchKey(user(id), keys.MaxSeq))
		if err != nil {
			t.Fatalf("Get %d: %v", id, err)
		}
		sst[i] = cmps
		_, _, _, mt[i] = mem.Get(user(id), keys.MaxSeq)
	}
	got := fmt.Sprintf("# %d entries + %d misses, seed 42; see TestCompareCountGolden\n", entries, misses) +
		summarizeCmps("sstable.get", sst) + summarizeCmps("memtable.get", mt)

	if *updateCmps {
		if err := os.WriteFile(cmpsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cmpsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("comparison counts moved; the modelled Get latency would change.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// summarizeCmps renders one probe sequence as the lines the golden
// file pins: total, FNV-64a over the counts in probe order, and the
// count → probes distribution.
func summarizeCmps(name string, cmps []int) string {
	h := fnv.New64a()
	hist := map[int]int{}
	total := 0
	for _, c := range cmps {
		fmt.Fprintf(h, "%d,", c)
		hist[c]++
		total += c
	}
	counts := make([]int, 0, len(hist))
	for c := range hist {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	dist := make([]string, len(counts))
	for i, c := range counts {
		dist[i] = fmt.Sprintf("%d:%d", c, hist[c])
	}
	return fmt.Sprintf("%s.probes %d\n%s.cmps_total %d\n%s.cmps_fnv64a %016x\n%s.cmps_dist %s\n",
		name, len(cmps), name, total, name, h.Sum64(), name, strings.Join(dist, " "))
}
