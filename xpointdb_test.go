package xpointdb

import (
	"fmt"
	"testing"
	"time"

	"xpointdb/internal/workload"
)

func TestOpenPathDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatalf("OpenPath: %v", err)
	}
	for i := 0; i < 500; i++ {
		if err := db.Put(workload.Key(i), workload.Value(i, 256)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := OpenPath(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for i := 0; i < 500; i++ {
		v, err := db2.Get(workload.Key(i))
		if err != nil {
			t.Fatalf("Get %d after reopen: %v", i, err)
		}
		want := workload.Value(i, 256)
		if string(v) != string(want) {
			t.Fatalf("value %d corrupted after reopen", i)
		}
	}
}

func TestBatchAndIterOnRealFS(t *testing.T) {
	db, err := OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var b Batch
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	if err := db.Apply(&b, true); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, fmt.Sprintf("%s=%s", it.Key(), it.Value()))
	}
	if len(got) != 2 || got[0] != "x=1" || got[1] != "y=2" {
		t.Fatalf("scan = %v", got)
	}
}

func TestSimulationEndToEnd(t *testing.T) {
	sim := NewSimulation(XPoint())
	var res *workload.Result
	sim.Kernel.Run(func() {
		db, err := Open(sim.Options)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		defer db.Close()
		if err := workload.Preload(db, 5000, 1024); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		res = workload.Run(sim.Kernel, db, workload.Config{
			Workers:   4,
			ReadRatio: 0.5,
			Duration:  2 * time.Second,
			KeySpace:  5000,
			ValueSize: 1024,
			Seed:      3,
		})
	})
	if res == nil || res.Ops() == 0 {
		t.Fatal("simulation did no work")
	}
	if res.Errors != 0 {
		t.Fatalf("workload errors: %d", res.Errors)
	}
	if sim.Kernel.Elapsed() < 2*time.Second {
		t.Fatalf("virtual time %v < workload duration", sim.Kernel.Elapsed())
	}
	if sim.Device.Stats().Reads == 0 {
		t.Fatal("no device reads charged")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() (int64, time.Duration) {
		sim := NewSimulation(SATAFlash())
		var ops int64
		sim.Kernel.Run(func() {
			db, err := Open(sim.Options)
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			defer db.Close()
			// Single-threaded: fully deterministic event order.
			for i := 0; i < 2000; i++ {
				if err := db.Put(workload.Key(i), workload.Value(i, 512)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				ops++
			}
		})
		return ops, sim.Kernel.Elapsed()
	}
	ops1, t1 := run()
	ops2, t2 := run()
	if ops1 != ops2 || t1 != t2 {
		t.Fatalf("single-threaded simulation not deterministic: (%d, %v) vs (%d, %v)", ops1, t1, ops2, t2)
	}
}

func TestWALDeviceSimulation(t *testing.T) {
	sim := NewSimulation(XPoint()).WithWALDevice(NVM())
	sim.Kernel.Run(func() {
		db, err := Open(sim.Options)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		defer db.Close()
		for i := 0; i < 200; i++ {
			if err := db.Put(workload.Key(i), workload.Value(i, 1024)); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	})
	if sim.WALDevice.Stats().Writes == 0 {
		t.Fatal("WAL device saw no writes")
	}
}

func TestSnapshotPublicAPI(t *testing.T) {
	db, err := OpenPath(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("k"), []byte("before"))
	var snap *Snapshot = db.NewSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("after"))

	v, err := snap.Get([]byte("k"))
	if err != nil || string(v) != "before" {
		t.Fatalf("snapshot = %q, %v", v, err)
	}
	it, err := snap.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.SeekToLast()
	if !it.Valid() || string(it.Value()) != "before" {
		t.Fatalf("snapshot iter = %q", it.Value())
	}
	it.Prev()
	if it.Valid() {
		t.Fatal("only one key expected")
	}
}

func TestNewSimulationNull(t *testing.T) {
	sim := NewSimulationNull()
	db, err := Open(sim.Options)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

// TestBatchReuseAfterApply reuses one Batch across Apply calls, the way
// the API invites: apply, Reset, refill with different values of the
// same length, apply again. The store keeps the first apply's bytes
// without copying them, so a Reset that cleared the buffer in place
// would let the refill overwrite values already acknowledged.
func TestBatchReuseAfterApply(t *testing.T) {
	type store interface {
		Apply(b *Batch, syncWAL bool) error
		Get(key []byte) ([]byte, error)
		Flush() error
		Close() error
	}
	bare := func(t *testing.T) store {
		db, err := Open(NewSimulationNull().Options)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	sharded := func(t *testing.T) store {
		db, err := OpenSharded(ShardedOptions{
			Shards:     2,
			Boundaries: [][]byte{[]byte("k-b")},
			Engine:     NewSimulationNull().Options,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	for name, open := range map[string]func(*testing.T) store{"bare": bare, "2 shards": sharded} {
		t.Run(name, func(t *testing.T) {
			db := open(t)
			defer db.Close()
			const rounds, per = 3, 8
			key := func(round, i int) []byte { return []byte(fmt.Sprintf("k-%c-%d-%02d", "ac"[i%2], round, i)) }
			value := func(round, i int) []byte { return []byte(fmt.Sprintf("value-of-round-%d-op-%02d", round, i)) }

			var b Batch
			for round := 0; round < rounds; round++ {
				for i := 0; i < per; i++ {
					b.Put(key(round, i), value(round, i))
				}
				if err := db.Apply(&b, false); err != nil {
					t.Fatal(err)
				}
				b.Reset()
				if b.Count() != 0 {
					t.Fatalf("Count after Reset = %d", b.Count())
				}
			}
			check := func(when string) {
				t.Helper()
				for round := 0; round < rounds; round++ {
					for i := 0; i < per; i++ {
						got, err := db.Get(key(round, i))
						if err != nil || string(got) != string(value(round, i)) {
							t.Fatalf("%s: Get(%s) = %q, %v; want %q", when, key(round, i), got, err, value(round, i))
						}
					}
				}
			}
			check("before flush")
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			check("after flush")
		})
	}
}
