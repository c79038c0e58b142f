// Package xpointdb's benchmark suite: one testing.B benchmark per
// figure of the paper (the same experiments cmd/figures runs, at a
// reduced scale suitable for `go test -bench`), plus ablation benches
// for the design choices DESIGN.md calls out.
//
// These benches report custom metrics instead of ns/op being the
// headline: kops/s of simulated throughput and µs latency percentiles,
// measured in virtual time. Wall-clock ns/op reflects simulation cost,
// not store performance.
package xpointdb

import (
	"fmt"
	"testing"
	"time"

	"xpointdb/internal/engine"
	"xpointdb/internal/experiments"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/workload"
)

// benchScale is smaller than the experiments' Quick scale so the whole
// bench suite stays tractable.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Duration:     1 * time.Second,
		KeySpace:     6000,
		MemtableSize: 1 << 20,
	}
}

// runFigure executes one figure experiment b.N times (the run itself
// aggregates many operations; b.N loops re-run it).
func runFigure(b *testing.B, id string) {
	b.Helper()
	r := &experiments.Runner{Scale: benchScale()}
	for i := 0; i < b.N; i++ {
		rep, err := r.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + rep.Table())
		}
	}
}

func BenchmarkFig01_RawVsKV(b *testing.B)             { runFigure(b, "fig1") }
func BenchmarkFig03_InsertionRatio(b *testing.B)      { runFigure(b, "fig3") }
func BenchmarkFig04_Timeline5pcWrites(b *testing.B)   { runFigure(b, "fig4") }
func BenchmarkFig05_Timeline90pcWrites(b *testing.B)  { runFigure(b, "fig5") }
func BenchmarkFig06_ReadLatency90pc(b *testing.B)     { runFigure(b, "fig6") }
func BenchmarkFig07_WriteLatency90pc(b *testing.B)    { runFigure(b, "fig7") }
func BenchmarkFig08_L0CountVsFileSize(b *testing.B)   { runFigure(b, "fig8") }
func BenchmarkFig09_ThroughputVsL0Files(b *testing.B) { runFigure(b, "fig9") }
func BenchmarkFig10_ReadLatVsL0Files(b *testing.B)    { runFigure(b, "fig10") }
func BenchmarkFig12_WriteLatVsFileSize(b *testing.B)  { runFigure(b, "fig12") }
func BenchmarkFig13_Parallelism(b *testing.B)         { runFigure(b, "fig13") }
func BenchmarkFig14_ReadLat32Threads(b *testing.B)    { runFigure(b, "fig14") }
func BenchmarkFig15_WriteLat32Threads(b *testing.B)   { runFigure(b, "fig15") }
func BenchmarkFig16_WaitingWriters(b *testing.B)      { runFigure(b, "fig16") }
func BenchmarkFig17_WALOnOff(b *testing.B)            { runFigure(b, "fig17") }
func BenchmarkFig18_TwoStageThrottle(b *testing.B)    { runFigure(b, "fig18") }
func BenchmarkFig19_DynamicL0(b *testing.B)           { runFigure(b, "fig19") }
func BenchmarkFig20_NVMLogging(b *testing.B)          { runFigure(b, "fig20") }

// ---------------------------------------------------------------------
// Ablations: isolate the design choices DESIGN.md calls out. Each
// reports virtual kops/s via b.ReportMetric.

// ablationRun measures one simulated mixed workload and reports its
// virtual-time throughput and write p90.
func ablationRun(b *testing.B, profile storage.Profile, readRatio float64, tweak func(*engine.Options)) {
	b.Helper()
	sc := benchScale()
	var tp, wp90 float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(profile, sc, tweak)
		res, _, err := env.RunKV(func(db *engine.DB) *workload.Result {
			return env.Mixed(db, 4, readRatio, nil)
		})
		if err != nil {
			b.Fatal(err)
		}
		tp = res.Throughput()
		wp90 = float64(res.WriteLat.Percentile(90).Microseconds())
	}
	b.ReportMetric(tp/1000, "virt-kops/s")
	b.ReportMetric(wp90, "write-p90-µs")
}

func BenchmarkAblationPipelinedWrites(b *testing.B) {
	for _, pipelined := range []bool{true, false} {
		pipelined := pipelined
		b.Run(fmt.Sprintf("pipelined=%v", pipelined), func(b *testing.B) {
			ablationRun(b, storage.XPoint(), 0.5, func(o *engine.Options) {
				o.PipelinedWrites = pipelined
			})
		})
	}
}

func BenchmarkAblationBloomFilters(b *testing.B) {
	for _, bits := range []int{0, 10} {
		bits := bits
		b.Run(fmt.Sprintf("bloomBits=%d", bits), func(b *testing.B) {
			ablationRun(b, storage.XPoint(), 0.9, func(o *engine.Options) {
				o.BloomBitsPerKey = bits
			})
		})
	}
}

func BenchmarkAblationBlockCache(b *testing.B) {
	for _, mb := range []int64{0, 2, 8} {
		mb := mb
		b.Run(fmt.Sprintf("cacheMB=%d", mb), func(b *testing.B) {
			ablationRun(b, storage.XPoint(), 0.9, func(o *engine.Options) {
				o.BlockCacheSize = mb << 20
			})
		})
	}
}

func BenchmarkAblationThrottleMode(b *testing.B) {
	modes := map[string]throttle.Mode{
		"none":       throttle.ModeNone,
		"algorithm1": throttle.ModeAlgorithm1,
		"twostage":   throttle.ModeTwoStage,
	}
	for name, mode := range modes {
		mode := mode
		b.Run(name, func(b *testing.B) {
			ablationRun(b, storage.XPoint(), 0.1, func(o *engine.Options) {
				o.ThrottleMode = mode
			})
		})
	}
}

// BenchmarkEngineRealClock measures the store as plain Go code (real
// clock, zero-latency device): the software-only cost of Put and Get.
func BenchmarkEngineRealClock(b *testing.B) {
	sim := NewSimulationNull()
	db, err := Open(sim.Options)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := workload.Value(1, 1024)
	b.Run("put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := db.Put(workload.Key(i%100000), val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := db.Get(workload.Key(i % 100000))
			if err != nil && err != ErrNotFound {
				b.Fatal(err)
			}
		}
	})
}
