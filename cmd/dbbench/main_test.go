package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"xpointdb/internal/engine"
)

// TestRunBody drives the one run body on both substrates and both
// store shapes: same ops, same report lines, a healthy store at the end.
// Two more simulated runs put recovery under load — injected WAL sync
// faults, and a cycled disk quota — and must still end healthy; only
// they may count failed ops. A zipfian hot-shard run must land most
// ops on shard 0, and a fillrandom run at max_subcompactions 4 must
// show the fan-out splitting a compaction.
func TestRunBody(t *testing.T) {
	for _, c := range []struct{ name, args string }{
		{"sim/shards=0", "-device xpoint -shards 0"},
		{"sim/shards=4", "-device xpoint -shards 4"},
		{"real/shards=0", "-shards 0"},
		{"real/shards=4", "-shards 4"},
		{"sim/faultprob", "-device xpoint -faultprob 0.5 -faultheal 100ms"},
		{"sim/quota_cycle", "-device xpoint -disk_quota 64000000 -quota_cycle 50ms"},
		{"sim/hot_shard", "-device xpoint -shards 4 -hot_shard_skew 1.3 -benchmarks readrandomwriterandom"},
		{"sim/subcompactions", "-device xpoint -benchmarks fillrandom -max_subcompactions 4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := append(strings.Fields("-benchmarks mixed -threads 2 -duration 200ms -num 2000"), strings.Fields(c.args)...)
			if strings.HasPrefix(c.name, "real/") {
				args = append(args, "-path", t.TempDir())
			}
			cfg, err := parse(args)
			if err != nil {
				t.Fatalf("parse(%v): %v", args, err)
			}
			var out bytes.Buffer
			r, err := execute(cfg, &out)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			faulty := cfg.faultProb > 0 || cfg.diskQuota > 0
			if r.res.Ops() == 0 || (r.res.Errors != 0 && !faulty) {
				t.Errorf("ops = %d, errors = %d; want ops > 0 and no errors", r.res.Ops(), r.res.Errors)
			}
			if faulty && r.injected == 0 && r.refused == 0 {
				t.Errorf("the filesystem injected no fault and refused no op:\n%s", out.String())
			}
			if cfg.quotaCycle > 0 && r.squeezes == 0 {
				t.Errorf("no quota squeeze in %v of -quota_cycle %v", cfg.duration, cfg.quotaCycle)
			}
			if r.health != engine.Healthy {
				t.Errorf("final health = %v", r.health)
			}
			labels := []string{"benchmark", "throughput", "write latency", "read misses",
				"l0 drain", "health", "** Metrics", "xpointdb_write_latency_seconds n=", "xpointdb_bgpool_size"}
			if cfg.bench != "fillrandom" {
				labels = append(labels, "read latency", "xpointdb_get_latency_seconds n=", "xpointdb_get_hits_total{where=")
			}
			for _, label := range labels {
				if !strings.Contains(out.String(), "\n"+label) && !strings.HasPrefix(out.String(), label) {
					t.Errorf("report has no %q line:\n%s", label, out.String())
				}
			}
			// A sharded store's counts are store-wide with one
			// bracketed value per shard.
			if cfg.shards > 1 && !regexp.MustCompile(`\nxpointdb_write_latency_seconds n=\d+ \[\d+ \d+ \d+ \d+\] `).MatchString(out.String()) {
				t.Errorf("no store-wide write count with %d per-shard values:\n%s", cfg.shards, out.String())
			}
			if cfg.hotSkew > 0 {
				// Ops per shard: its Gets plus its writes.
				ops := make([]int, 4)
				for _, hist := range []string{"get", "write"} {
					m := regexp.MustCompile(`\nxpointdb_` + hist + `_latency_seconds n=\d+ \[(\d+) (\d+) (\d+) (\d+)\] `).FindStringSubmatch(out.String())
					if m == nil {
						t.Fatalf("no per-shard %s counts:\n%s", hist, out.String())
					}
					for i, v := range m[1:] {
						n, _ := strconv.Atoi(v)
						ops[i] += n
					}
				}
				for _, cold := range ops[1:] {
					if cold >= ops[0] {
						t.Errorf("shard 0 ran %d ops, a cold shard %d: the skew did not land on shard 0", ops[0], cold)
					}
				}
			}
			if cfg.maxSub > 1 && !regexp.MustCompile(`\nxpointdb_compaction_subcompactions_total [1-9]`).MatchString(out.String()) {
				t.Errorf("max_subcompactions %d split no compaction:\n%s", cfg.maxSub, out.String())
			}
		})
	}
}

// TestRejectedFlags: every bad flag combination is refused by parse,
// before execute could open anything.
func TestRejectedFlags(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-path /tmp/x -wal_device nvm", "-wal_device requires the simulated device"},
		{"-path /tmp/x -faultprob 0.1", "-faultprob requires the simulated device"},
		{"-path /tmp/x -disk_quota 1000", "-disk_quota requires the simulated device"},
		{"-quota_cycle 1s", "-quota_cycle requires -disk_quota"},
		{"-device floppy", `unknown -device "floppy"`},
		{"-wal_device floppy", `unknown -wal_device "floppy"`},
		{"-shards -1", "-shards must be >= 0"},
		{"-hot_shard_skew 0.5 -shards 4", "-hot_shard_skew must be > 1"},
		{"-hot_shard_skew 1.2", "-hot_shard_skew requires -shards > 1"},
		{"-benchmarks nope", `unknown -benchmarks "nope"`},
		{"-throttle nope", `unknown -throttle "nope"`},
	} {
		if _, err := parse(strings.Fields(c.args)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parse(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}
