// Quickstart: use xpointdb as an ordinary durable key-value store on
// the local filesystem (real clock, real disk).
package main

import (
	"fmt"
	"log"
	"os"

	"xpointdb"
)

func main() {
	dir, err := os.MkdirTemp("", "xpointdb-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := xpointdb.OpenPath(dir)
	if err != nil {
		log.Fatalf("open: %v", err)
	}

	// Point writes and reads.
	if err := db.Put([]byte("greeting"), []byte("hello, xpoint")); err != nil {
		log.Fatalf("put: %v", err)
	}
	v, err := db.Get([]byte("greeting"))
	if err != nil {
		log.Fatalf("get: %v", err)
	}
	fmt.Printf("greeting = %s\n", v)

	// Atomic batches.
	var b xpointdb.Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("user:%04d", i)), []byte(fmt.Sprintf("profile-%d", i)))
	}
	b.Delete([]byte("greeting"))
	if err := db.Apply(&b, true); err != nil {
		log.Fatalf("apply: %v", err)
	}
	if _, err := db.Get([]byte("greeting")); err != xpointdb.ErrNotFound {
		log.Fatalf("tombstone not applied: %v", err)
	}

	// Ordered scans over a consistent snapshot — forward and reverse.
	it, err := db.NewIter()
	if err != nil {
		log.Fatalf("iter: %v", err)
	}
	n := 0
	it.SeekGE([]byte("user:0090"))
	for ; it.Valid(); it.Next() {
		if n < 3 {
			fmt.Printf("  %s = %s\n", it.Key(), it.Value())
		}
		n++
	}
	fmt.Printf("scanned %d keys from user:0090\n", n)
	it.SeekToLast()
	fmt.Printf("last key: %s\n", it.Key())
	it.Close()

	// Pinned point-in-time snapshots.
	snap := db.NewSnapshot()
	if err := db.Put([]byte("user:0001"), []byte("rewritten")); err != nil {
		log.Fatal(err)
	}
	old, _ := snap.Get([]byte("user:0001"))
	cur, _ := db.Get([]byte("user:0001"))
	fmt.Printf("snapshot sees %q, live sees %q\n", old, cur)
	snap.Release()

	// Reopen to show recovery.
	if err := db.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	db2, err := xpointdb.OpenPath(dir)
	if err != nil {
		log.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	v, err = db2.Get([]byte("user:0042"))
	if err != nil {
		log.Fatalf("get after reopen: %v", err)
	}
	fmt.Printf("after reopen, user:0042 = %s\n", v)

	// The same report /stats serves: health, LSM shape, every non-zero
	// metric under its /metrics name, the per-level table.
	fmt.Print(db2.StatsReport())
}
