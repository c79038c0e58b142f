package engine

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xpointdb/internal/clock"
	"xpointdb/internal/events"
	"xpointdb/internal/histogram"
	"xpointdb/internal/obs"
	"xpointdb/internal/storage"
	"xpointdb/internal/vfs"
)

// TestPrometheusGolden renders the full /metrics exposition of a DB
// that has done real work and runs it through the strict parser: every
// family well-formed and declared once, every histogram's bucket
// invariants intact, and values matching the live counters. Which
// families exist is pinned by the checked-in catalogue
// (shardeddb.TestMetricsCatalogue) and TestMetricsComplete.
func TestPrometheusGolden(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	for i := 0; i < 2000; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("get: %v", err)
		}
	}

	var buf bytes.Buffer
	db.WritePrometheus(&buf)
	fams, err := obs.ParsePromText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	byName := map[string]*obs.PromFamily{}
	for _, f := range fams {
		if _, dup := byName[f.Name]; dup {
			t.Errorf("family %s declared twice", f.Name)
		}
		byName[f.Name] = f
	}

	// Spot-check values against the live counters.
	s := db.Metrics().Snapshot()
	count := func(hist string) float64 {
		for _, smp := range byName[hist].Samples {
			if strings.HasSuffix(smp.Name, "_count") {
				return smp.Value
			}
		}
		return -1
	}
	if got := count("xpointdb_flush_latency_seconds"); got != float64(s.Flushes) {
		t.Errorf("flush_latency count = %v, metrics say %d", got, s.Flushes)
	}
	if got := count("xpointdb_get_latency_seconds"); got != float64(s.Gets) {
		t.Errorf("get_latency count = %v, metrics say %d", got, s.Gets)
	}
}

// TestMetricsComplete walks Metrics by reflection and fails for any
// counter, gauge, histogram or per-level counter that no table entry
// reads: bumping the field must change the /metrics exposition and the
// /stats text alike, the two sinks of the one table. It also fails when
// two entries declare the same family or emit the same name and label
// set.
func TestMetricsComplete(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.DisableScrub = true // nothing but the test may move a counter
	})
	defer db.Close()

	// Families that move with the clock alone, not with a bump.
	timeWeighted := []string{"xpointdb_uptime_seconds", "xpointdb_waiting_writers_mean"}
	render := func() map[string]float64 {
		var buf bytes.Buffer
		db.WritePrometheus(&buf)
		fams, err := obs.ParsePromText(&buf)
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		samples := map[string]float64{}
		for _, f := range fams {
			for _, s := range f.Samples {
				key := fmt.Sprint(s.Name, s.Labels)
				if _, dup := samples[key]; dup {
					t.Errorf("sample %s emitted twice", key)
				}
				if !slices.Contains(timeWeighted, f.Name) {
					samples[key] = s.Value
				}
			}
		}
		return samples
	}
	renderStats := func() string {
		var kept []string
		for _, line := range strings.Split(db.StatsReport(), "\n") {
			if name, _, _ := strings.Cut(line, " "); !slices.Contains(timeWeighted, name) {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	seen := map[string]bool{}
	for _, lists := range [][]string{familyNames(engineFamilies), familyNames(sharedFamilies), familyNames(cacheFamilies)} {
		for _, name := range lists {
			if seen[name] {
				t.Errorf("family %s declared twice", name)
			}
			seen[name] = true
		}
	}

	var bump func(path string, v reflect.Value)
	bump = func(path string, v reflect.Value) {
		before, beforeStats := render(), renderStats()
		switch f := v.Addr().Interface().(type) {
		case *atomic.Int64:
			f.Add(1 << 20)
		case *Gauge:
			f.Add(3)
		case *histogram.Histogram:
			f.Record(time.Millisecond)
		case *LevelCounters:
			for i := 0; i < v.NumField(); i++ {
				bump(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		default:
			if v.Kind() == reflect.Array {
				for i := 0; i < v.Len(); i++ {
					bump(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
				}
			}
			return
		}
		if reflect.DeepEqual(before, render()) {
			t.Errorf("Metrics.%s is exported by no table entry", path)
		}
		if beforeStats == renderStats() {
			t.Errorf("Metrics.%s does not reach /stats", path)
		}
	}
	mv := reflect.ValueOf(db.Metrics()).Elem()
	for i := 0; i < mv.NumField(); i++ {
		if f := mv.Type().Field(i); f.IsExported() {
			bump(f.Name, mv.Field(i))
		}
	}
}

func familyNames[S any](fams []family[S]) []string {
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.name
	}
	return names
}

// TestSlowOpTracing: with a threshold of 1ns every op is slow — a
// snapshot read as much as a live one — and each promoted event must
// carry the full stage breakdown even though CollectPerf is off.
func TestSlowOpTracing(t *testing.T) {
	buf := &events.Buffer{}
	db, _ := newTestDB(t, func(o *Options) {
		o.EventListener = buf
		o.SlowOpThreshold = time.Nanosecond
	})
	defer db.Close()

	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != nil {
		t.Fatalf("get: %v", err)
	}
	snap := db.NewSnapshot()
	defer snap.Release()
	if _, err := snap.Get([]byte("k")); err != nil {
		t.Fatalf("snapshot get: %v", err)
	}

	db.SyncEvents()
	var gets int
	var sawWrite bool
	for _, e := range buf.Events() {
		if e.Kind != events.KindSlowOp {
			continue
		}
		so := e.SlowOp
		if so.ThresholdUS != 0 {
			t.Errorf("1ns threshold rounds to %dµs, want 0", so.ThresholdUS)
		}
		if len(so.Stages) == 0 {
			t.Errorf("slow_op %q has no stage breakdown", so.Op)
		}
		switch so.Op {
		case "get":
			gets++
		case "write":
			sawWrite = true
			if so.Batch != 1 {
				t.Errorf("write slow_op batch = %d, want 1", so.Batch)
			}
		}
	}
	if gets != 2 || !sawWrite {
		t.Fatalf("slow_op events: %d gets (want 2: live and snapshot), write=%v", gets, sawWrite)
	}
	if db.Metrics().SlowOps.Load() < 3 {
		t.Errorf("SlowOps = %d, want >= 3", db.Metrics().SlowOps.Load())
	}
}

// TestSyncEventsBarrier: with the async sink (the default), SyncEvents
// must make everything emitted so far visible to the listener without
// closing the DB.
func TestSyncEventsBarrier(t *testing.T) {
	buf := &events.Buffer{}
	db, _ := newTestDB(t, func(o *Options) { o.EventListener = buf })
	defer db.Close()

	for i := 0; i < 500; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	db.SyncEvents()
	var sawFlush bool
	for _, e := range buf.Events() {
		if e.Kind == events.KindFlushEnd {
			sawFlush = true
		}
	}
	if !sawFlush {
		t.Fatalf("flush_end not visible to async sink after SyncEvents (%d events)", buf.Len())
	}
}

// blockingSink blocks every Emit until released — the pathological
// JSON-lines sink (full disk, hung NFS) the bounded queue exists for.
type blockingSink struct {
	release chan struct{}
	n       int64
	mu      sync.Mutex
}

func (b *blockingSink) Emit(events.Event) {
	<-b.release
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// TestEventSinkBackpressureDrops: a wedged sink must never block the
// write path; once more events than the queue holds are emitted, the
// overflow is counted in Shared.EventsDropped.
func TestEventSinkBackpressureDrops(t *testing.T) {
	sink := &blockingSink{release: make(chan struct{})}
	db, _ := newTestDB(t, func(o *Options) {
		o.EventListener = sink
		o.SlowOpThreshold = time.Nanosecond // every op emits an event
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < obs.DefaultSinkQueue+200; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("write path blocked on a wedged event sink")
	}
	if db.Shared().EventsDropped.Load() == 0 {
		t.Error("no drops counted despite a wedged sink and 200 events past its queue")
	}
	close(sink.release) // un-wedge so Close can drain
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestObsPlaneUnderLoad is the race-mode hammer: a live HTTP ops
// server, concurrent /metrics scrapes (each response strictly parsed),
// /events subscribers churning connect/disconnect, and StatsReport
// calls — all against a DB running a mixed workload.
func TestObsPlaneUnderLoad(t *testing.T) {
	buf := &events.Buffer{}
	db, _ := newTestDB(t, func(o *Options) {
		o.ObsAddr = "127.0.0.1:0"
		o.EventListener = buf
		o.SlowOpThreshold = time.Nanosecond // constant event traffic
	})
	addr := db.ObsAddr()
	if addr == "" {
		t.Fatal("ObsAddr empty with ObsAddr option set")
	}
	base := "http://" + addr

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Mixed workload.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := testKey((i*7 + w*1000) % 3000)
				if i%2 == 0 {
					if err := db.Put(k, testValue(i)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				} else if _, err := db.Get(k); err != nil && err != ErrNotFound {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}

	// Scrapers: every response must parse.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					t.Errorf("GET /metrics: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if _, err := obs.ParsePromText(bytes.NewReader(body)); err != nil {
					t.Errorf("scrape does not parse: %v", err)
					return
				}
			}
		}()
	}

	// SSE churn: connect, read a little, disconnect.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, _ := http.NewRequest("GET", base+"/events", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("GET /events: %v", err)
				return
			}
			b := make([]byte, 4096)
			_, _ = resp.Body.Read(b)
			resp.Body.Close()
		}
	}()

	// Stats and health pollers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = db.StatsReport()
			_ = db.LevelStats().String()
			resp, err := http.Get(base + "/healthz")
			if err != nil {
				t.Errorf("GET /healthz: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthz = %d", resp.StatusCode)
				return
			}
		}
	}()

	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()

	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// After Close the server must be down and the sink fully drained.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("ops server still answering after Close")
	}
	var slow int
	for _, e := range buf.Events() {
		if e.Kind == events.KindSlowOp {
			slow++
		}
	}
	if slow == 0 {
		t.Error("no slow_op events reached the async sink")
	}
}

// TestObsAddrConflict: a second DB asking for the same port must fail
// Open cleanly (no leaked workers, no leaked hub goroutine).
func TestObsAddrConflict(t *testing.T) {
	db1, _ := newTestDB(t, func(o *Options) { o.ObsAddr = "127.0.0.1:0" })
	defer db1.Close()

	var second *DB
	_, err := func() (*DB, error) {
		db2, err := openSecondOnAddr(db1.ObsAddr())
		second = db2
		return db2, err
	}()
	if err == nil {
		second.Close()
		t.Fatal("Open succeeded with a conflicting ObsAddr")
	}
	if !strings.Contains(err.Error(), "ops server") {
		t.Errorf("error %q does not mention the ops server", err)
	}
}

func openSecondOnAddr(addr string) (*DB, error) {
	dev := storage.New(clock.Real{}, storage.Null())
	opts := DefaultOptions(vfs.NewMem(dev))
	opts.ObsAddr = addr // already bound by the first DB
	return Open(opts)
}
