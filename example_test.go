package xpointdb_test

import (
	"fmt"
	"log"
	"os"

	"xpointdb"
)

// Example uses xpointdb as an ordinary durable key-value store on the
// local filesystem: point writes and reads, an atomic batch, forward
// and reverse scans, a pinned snapshot, recovery on reopen, and the
// same scan over a sharded store through the one Iter type.
func Example() {
	dir, err := os.MkdirTemp("", "xpointdb-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := xpointdb.OpenPath(dir)
	if err != nil {
		log.Fatal(err)
	}

	// Point writes and reads.
	if err := db.Put([]byte("greeting"), []byte("hello, xpoint")); err != nil {
		log.Fatal(err)
	}
	v, err := db.Get([]byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greeting = %s\n", v)

	// An atomic batch: 100 profiles in, the greeting out.
	var b xpointdb.Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("user:%04d", i)), []byte(fmt.Sprintf("profile-%d", i)))
	}
	b.Delete([]byte("greeting"))
	if err := db.Apply(&b, true); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Get([]byte("greeting")); err == xpointdb.ErrNotFound {
		fmt.Println("greeting deleted")
	}

	// Ordered scans over the view the iterator was opened on: forward
	// from a seek, then backward from the end.
	it, err := db.NewIter()
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for it.SeekGE([]byte("user:0097")); it.Valid(); it.Next() {
		fmt.Printf("  %s = %s\n", it.Key(), it.Value())
		n++
	}
	fmt.Printf("scanned %d keys from user:0097\n", n)
	it.SeekToLast()
	it.Prev()
	fmt.Printf("second to last: %s\n", it.Key())
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}

	// A pinned point-in-time snapshot.
	snap := db.NewSnapshot()
	if err := db.Put([]byte("user:0001"), []byte("rewritten")); err != nil {
		log.Fatal(err)
	}
	old, _ := snap.Get([]byte("user:0001"))
	cur, _ := db.Get([]byte("user:0001"))
	fmt.Printf("snapshot sees %q, live sees %q\n", old, cur)
	snap.Release()

	// Reopen: every acknowledged write is still there.
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	db, err = xpointdb.OpenPath(dir)
	if err != nil {
		log.Fatal(err)
	}
	v, err = db.Get([]byte("user:0001"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reopen, user:0001 = %s\n", v)
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Four range shards, here in memory: a batch across them commits
	// atomically, and a scan crosses their boundaries through the same
	// Iter.
	sdb, err := xpointdb.OpenSharded(xpointdb.ShardedOptions{
		Shards:     4,
		Boundaries: [][]byte{[]byte("h"), []byte("o"), []byte("t")},
		Engine:     xpointdb.NewSimulationNull().Options,
	})
	if err != nil {
		log.Fatal(err)
	}
	b = xpointdb.Batch{}
	for _, k := range []string{"apple", "kiwi", "plum", "yuzu"} {
		b.Put([]byte(k), []byte("fruit"))
	}
	if err := sdb.Apply(&b, true); err != nil {
		log.Fatal(err)
	}
	var sit xpointdb.Iter // the type db.NewIter returned too
	sit, err = sdb.NewIter()
	if err != nil {
		log.Fatal(err)
	}
	for sit.SeekToLast(); sit.Valid(); sit.Prev() {
		fmt.Printf("  shard %d: %s\n", sdb.ShardForKey(sit.Key()), sit.Key())
	}
	if err := sit.Close(); err != nil {
		log.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		log.Fatal(err)
	}

	// Output:
	// greeting = hello, xpoint
	// greeting deleted
	//   user:0097 = profile-97
	//   user:0098 = profile-98
	//   user:0099 = profile-99
	// scanned 3 keys from user:0097
	// second to last: user:0098
	// snapshot sees "profile-1", live sees "rewritten"
	// after reopen, user:0001 = rewritten
	//   shard 3: yuzu
	//   shard 2: plum
	//   shard 1: kiwi
	//   shard 0: apple
}
