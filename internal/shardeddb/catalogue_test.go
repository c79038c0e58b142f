package shardeddb

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/obs"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_*.txt instead of diffing against them")

// scrapeBare parses the /metrics body of a bare engine opened with the
// sharded tests' options.
func scrapeBare(t *testing.T) []*obs.PromFamily {
	t.Helper()
	eo := testOptions(vfs.NewMem(storage.New(clock.Real{}, storage.Null())), 1, nil).Engine
	db, err := engine.Open(eo)
	if err != nil {
		t.Fatalf("engine.Open: %v", err)
	}
	defer db.Close()
	return scrape(t, db.WritePrometheus)
}

func scrape(t *testing.T, write func(w io.Writer)) []*obs.PromFamily {
	t.Helper()
	var buf bytes.Buffer
	write(&buf)
	fams, err := obs.ParsePromText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	return fams
}

// catalogue renders parsed families as one line each — name, type,
// label keys (sorted, comma-joined, "-" when none) and help — sorted by
// name: the shape of an exposition, independent of values.
func catalogue(fams []*obs.PromFamily) string {
	lines := make([]string, 0, len(fams))
	for _, f := range fams {
		seen := map[string]bool{}
		for _, s := range f.Samples {
			for k := range s.Labels {
				seen[k] = true
			}
		}
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		labels := "-"
		if len(keys) > 0 {
			labels = strings.Join(keys, ",")
		}
		lines = append(lines, fmt.Sprintf("%s  %s  %s  %s\n", f.Name, f.Type, labels, f.Help))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestMetricsCatalogue pins the /metrics contract of both stores — each
// family's name, type, label keys and help text — against the committed
// catalogues: a bare engine and a 3-shard store. Regenerate with
// `go test ./internal/shardeddb -run TestMetricsCatalogue -update` and
// review the diff: a removed or altered line breaks someone's dashboard.
func TestMetricsCatalogue(t *testing.T) {
	db, _ := newTestStore(t, 3, nil)
	defer db.Close()
	for path, fams := range map[string][]*obs.PromFamily{
		"testdata/metrics_bare.txt":    scrapeBare(t),
		"testdata/metrics_sharded.txt": scrape(t, db.WritePrometheus),
	} {
		got := catalogue(fams)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wantLines := map[string]bool{}
		for _, l := range strings.SplitAfter(string(want), "\n") {
			wantLines[l] = true
		}
		for _, l := range strings.SplitAfter(got, "\n") {
			if !wantLines[l] {
				t.Errorf("%s: exposition has a line the catalogue lacks (-update?):\n+ %s", path, l)
			}
			delete(wantLines, l)
		}
		for l := range wantLines {
			t.Errorf("%s: catalogue line missing from the exposition:\n- %s", path, l)
		}
	}
}

// TestShardedFamiliesMatchBare is the same-name-plus-shard-label rule:
// every family a bare engine exports is on a 3-shard store under the
// same name, either once per shard (a shard label with exactly 3
// values, each carrying the bare store's sample count) or exactly as on
// the bare store (a shared resource, no shard label).
func TestShardedFamiliesMatchBare(t *testing.T) {
	db, _ := newTestStore(t, 3, nil)
	defer db.Close()
	sharded := map[string]*obs.PromFamily{}
	for _, f := range scrape(t, db.WritePrometheus) {
		sharded[f.Name] = f
	}
	labelled := 0
	for _, bare := range scrapeBare(t) {
		f := sharded[bare.Name]
		if f == nil {
			t.Errorf("%s: on the bare store, missing on the sharded one", bare.Name)
			continue
		}
		perShard := map[string]int{}
		for _, s := range f.Samples {
			perShard[s.Labels["shard"]]++
		}
		if n, shared := perShard[""]; shared {
			if len(perShard) != 1 || n != len(bare.Samples) {
				t.Errorf("%s: shared family has samples per shard label %v, bare store has %d", bare.Name, perShard, len(bare.Samples))
			}
			continue
		}
		labelled++
		if len(perShard) != 3 {
			t.Errorf("%s: shard labels %v, want 0, 1 and 2", bare.Name, perShard)
		}
		for shard, n := range perShard {
			if n != len(bare.Samples) {
				t.Errorf("%s: shard %s has %d samples, bare store has %d", bare.Name, shard, n, len(bare.Samples))
			}
		}
	}
	if labelled == 0 {
		t.Error("no family carries a shard label")
	}
}
