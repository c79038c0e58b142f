package engine

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/costmodel"
	"xpointdb/internal/events"
	"xpointdb/internal/sim"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// TestGaugeZeroValue checks that an uninitialized Gauge (no clock) is
// usable like a zero-value Histogram instead of panicking on the nil
// clock.
func TestGaugeZeroValue(t *testing.T) {
	var g Gauge
	g.Add(3)
	g.Add(2)
	g.Add(-1)
	if got := g.Current(); got != 4 {
		t.Errorf("Current = %d, want 4", got)
	}
	if got := g.Max(); got != 5 {
		t.Errorf("Max = %d, want 5", got)
	}
	if got := g.Mean(); got != 0 {
		t.Errorf("Mean = %v, want 0 (no time base)", got)
	}
}

// TestMetricsSnapshotRace hammers the engine with concurrent writers
// and readers while another goroutine takes snapshots and renders
// both sinks of the family tables; run under -race this is the
// data-race check for the whole metrics surface.
func TestMetricsSnapshotRace(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) {
		o.CollectPerf = true
	})
	defer db.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("w%d-%06d", w, i))
				if err := db.Put(key, testValue(i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				_, _ = db.Get(key)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := db.Metrics().Snapshot()
			if s.Writes < 0 {
				t.Errorf("negative write count: %d", s.Writes)
			}
			db.WritePrometheus(io.Discard)
			_ = db.StatsReport()
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestEventStreamBurst drives a burst of writes through a tiny
// memtable under the simulation kernel and checks the emitted event
// stream: flush begin/end pairs with their trigger, WAL syncs,
// compactions, stall-condition transitions with causes, and Algorithm
// 1 rate steps with the paper's 0.8×/1.25× factors.
func TestEventStreamBurst(t *testing.T) {
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	dev := storage.New(k, storage.XPoint())
	fs := vfs.NewMem(dev)
	var buf events.Buffer

	k.Run(func() {
		opts := DefaultOptions(fs)
		opts.Clock = k
		opts.CostModel = costmodel.Default()
		opts.MemtableSize = 8 << 10
		opts.TargetFileSize = 8 << 10
		opts.BaseLevelBytes = 32 << 10
		opts.SyncWAL = true
		opts.ThrottleMode = throttle.ModeAlgorithm1
		opts.L0SlowdownTrigger = 2 // stall engages after two flushes
		opts.L0CompactionTrigger = 4
		opts.EventListener = &buf

		db, err := Open(opts)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		for i := 0; i < 1500; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Errorf("Put %d: %v", i, err)
				return
			}
		}
		if err := db.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})

	evs := buf.Events()
	counts := map[events.Kind]int{}
	for i, e := range evs {
		counts[e.Kind]++
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if e.TS.IsZero() {
			t.Fatalf("event %d has zero timestamp", i)
		}
	}
	for _, k := range []events.Kind{
		events.KindFlushBegin, events.KindFlushEnd,
		events.KindCompactionBegin, events.KindCompactionEnd,
		events.KindStallChange, events.KindRateChange, events.KindWALSync,
	} {
		if counts[k] == 0 {
			t.Errorf("no %s events emitted (stream: %d events)", k, len(evs))
		}
	}
	if counts[events.KindFlushBegin] != counts[events.KindFlushEnd] {
		t.Errorf("flush begin/end mismatch: %d vs %d",
			counts[events.KindFlushBegin], counts[events.KindFlushEnd])
	}
	if counts[events.KindCompactionBegin] != counts[events.KindCompactionEnd] {
		t.Errorf("compaction begin/end mismatch: %d vs %d",
			counts[events.KindCompactionBegin], counts[events.KindCompactionEnd])
	}

	sawDelayed, sawDec := false, false
	for _, e := range evs {
		switch e.Kind {
		case events.KindFlushBegin:
			if e.Flush.Reason != "memtable-full" {
				t.Errorf("flush reason = %q, want memtable-full", e.Flush.Reason)
			}
			if e.Flush.Bytes <= 0 {
				t.Errorf("flush begin with no bytes: %+v", e.Flush)
			}
		case events.KindFlushEnd:
			if e.Flush.Error == "" && (e.Flush.OutputFile == 0 || e.Flush.Bytes <= 0) {
				t.Errorf("flush end missing output: %+v", e.Flush)
			}
		case events.KindCompactionEnd:
			// A trivial move re-links its inputs with zero data I/O;
			// only a merging compaction must report written bytes.
			if e.Compaction.Error == "" && !e.Compaction.TrivialMove && e.Compaction.BytesWritten <= 0 {
				t.Errorf("compaction end wrote nothing: %+v", e.Compaction)
			}
			if e.Compaction.TrivialMove && (e.Compaction.BytesRead != 0 || e.Compaction.BytesWritten != 0) {
				t.Errorf("trivial move did data I/O: %+v", e.Compaction)
			}
			if e.Compaction.Score <= 0 {
				t.Errorf("compaction without pick score: %+v", e.Compaction)
			}
		case events.KindStallChange:
			if e.Stall.From == e.Stall.To {
				t.Errorf("stall non-transition: %+v", e.Stall)
			}
			if e.Stall.To == "delayed" {
				sawDelayed = true
				if e.Stall.L0Files < 2 {
					t.Errorf("delayed stall with L0=%d below trigger", e.Stall.L0Files)
				}
			}
		case events.KindRateChange:
			r := e.Rate
			if r.Factor != throttle.Dec && r.Factor != throttle.Inc {
				t.Errorf("rate factor %v, want %v or %v", r.Factor, throttle.Dec, throttle.Inc)
			}
			if r.Behind != (r.Factor == throttle.Dec) {
				t.Errorf("rate behind=%v inconsistent with factor %v", r.Behind, r.Factor)
			}
			if r.Behind {
				sawDec = true
			}
			// NewRate is OldRate×Factor unless the controller clamps.
			want := r.OldRate * r.Factor
			if want < 1<<20 {
				want = 1 << 20
			}
			if want > 1<<30 {
				want = 1 << 30
			}
			if diff := r.NewRate - want; diff > 1 || diff < -1 {
				t.Errorf("rate step %v -> %v, want %v (factor %v)", r.OldRate, r.NewRate, want, r.Factor)
			}
		case events.KindWALSync:
			if e.WALSync.Error == "" && e.WALSync.WALNum == 0 {
				t.Errorf("wal sync without log number: %+v", e.WALSync)
			}
		}
	}
	if !sawDelayed {
		t.Error("no transition into the delayed stall state")
	}
	if !sawDec {
		t.Error("no Algorithm 1 Dec (×0.8) rate step observed")
	}
}

// TestPerfStageCoverage checks the ISSUE acceptance bound: under the
// simulation kernel (where mutex waits cost no virtual time), the
// per-stage sums must attribute the end-to-end Write and Get latency
// histograms to within 10%.
func TestPerfStageCoverage(t *testing.T) {
	k := sim.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	dev := storage.New(k, storage.XPoint())
	fs := vfs.NewMem(dev)
	var m *Metrics

	k.Run(func() {
		opts := DefaultOptions(fs)
		opts.Clock = k
		opts.CostModel = costmodel.Default()
		opts.MemtableSize = 32 << 10
		opts.TargetFileSize = 32 << 10
		opts.BaseLevelBytes = 128 << 10
		opts.SyncWAL = true
		opts.CollectPerf = true

		db, err := Open(opts)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		const n = 2000
		for i := 0; i < n; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Errorf("Put %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 500; i++ {
			if _, err := db.Get(testKey(i * 3 % n)); err != nil {
				t.Errorf("Get %d: %v", i, err)
				return
			}
		}
		m = db.Metrics()
		if err := db.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})

	if m.PerfWriteOps.Load() == 0 || m.PerfReadOps.Load() == 0 {
		t.Fatalf("CollectPerf aggregated no ops: writes=%d reads=%d",
			m.PerfWriteOps.Load(), m.PerfReadOps.Load())
	}
	checkCoverage := func(name string, e2e, stages time.Duration) {
		t.Helper()
		if e2e <= 0 {
			t.Fatalf("%s: no end-to-end time recorded", name)
		}
		ratio := float64(stages) / float64(e2e)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: stage sum %v covers %.1f%% of end-to-end %v, want within 10%%",
				name, stages, 100*ratio, e2e)
		}
	}
	stageSum := func(stages []stageDef) (sum time.Duration) {
		for _, st := range stages {
			if !st.nested {
				sum += st.hist(m).Sum()
			}
		}
		return sum
	}
	checkCoverage("write", m.WriteLatency.Sum(), stageSum(writeStages))
	checkCoverage("read", m.GetLatency.Sum(), stageSum(readStages))
}

// TestPerfContextExplicit exercises the caller-supplied accumulating
// PerfContext path of GetWithPerf/ApplyWithPerf.
func TestPerfContextExplicit(t *testing.T) {
	db, _ := newTestDB(t, nil)
	defer db.Close()

	var wpc PerfContext
	var b1, b2 batch.Batch
	b1.Put([]byte("a"), []byte("1"))
	b2.Put([]byte("b"), []byte("2"))
	if err := db.ApplyWithPerf(&b1, true, &wpc); err != nil {
		t.Fatalf("ApplyWithPerf: %v", err)
	}
	afterOne := wpc
	if err := db.ApplyWithPerf(&b2, true, &wpc); err != nil {
		t.Fatalf("ApplyWithPerf: %v", err)
	}
	if wpc.WriteStages() < afterOne.WriteStages() {
		t.Errorf("write PerfContext did not accumulate: %v then %v",
			afterOne.WriteStages(), wpc.WriteStages())
	}
	if db.Metrics().PerfWriteOps.Load() != 2 {
		t.Errorf("PerfWriteOps = %d, want 2", db.Metrics().PerfWriteOps.Load())
	}

	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var rpc PerfContext
	if _, err := db.GetWithPerf([]byte("a"), &rpc); err != nil {
		t.Fatalf("GetWithPerf: %v", err)
	}
	if rpc.BloomChecks == 0 && rpc.L0Probes == 0 {
		t.Errorf("flushed read probed nothing: %+v", rpc)
	}
	if rpc.String() == "" {
		t.Error("PerfContext.String is empty")
	}
	if db.Metrics().PerfReadOps.Load() != 1 {
		t.Errorf("PerfReadOps = %d, want 1", db.Metrics().PerfReadOps.Load())
	}
}

// TestMetricsReportContents sanity-checks the one-shot /stats text of
// a bare engine: state lines, rendered families (including the shared
// resources it owns), the stage-share line and the per-level table —
// and no per-level family lines, which the table renders.
func TestMetricsReportContents(t *testing.T) {
	db, _ := newTestDB(t, func(o *Options) { o.CollectPerf = true })
	defer db.Close()

	for i := 0; i < 200; i++ {
		if err := db.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Get(testKey(i)); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	rep := db.StatsReport()
	for _, want := range []string{
		"health         : healthy\n", "lsm            : L0 1 files", "** Metrics **\n",
		"\nxpointdb_write_latency_seconds n=200 mean=", "\nxpointdb_get_latency_seconds n=50 mean=",
		"\nxpointdb_flush_latency_seconds n=1 mean=", "\nxpointdb_stage_seconds{path=\"write\",stage=\"wal_sync\"} n=200 ",
		"\nstage share    : write ", "; get mem ", "\nxpointdb_bgpool_size ", "\nxpointdb_block_cache_used_bytes ",
		`xpointdb_write_controller_state{state="clear"} 1`, `xpointdb_space_state{state="clear"} 1`,
		"** Per-level compaction stats **\n",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("stats report missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "xpointdb_level_") {
		t.Errorf("per-level families rendered as lines; the per-level table is their rendering:\n%s", rep)
	}
}
