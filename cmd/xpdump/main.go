// Command xpdump inspects database files — the sst_dump / ldb
// equivalent. It understands all three on-disk formats:
//
//	xpdump -db /path/to/db                    # directory overview
//	xpdump -db /path/to/db -file 000007.sst   # dump one SST
//	xpdump -db /path/to/db -file 000003.log   # dump one WAL
//	xpdump -db /path/to/db -file MANIFEST-000001
//	xpdump -db /path/to/db -file 000007.sst -keys   # include every key
//	xpdump -db /path/to/db -file 000007.sst -verify # checksum-verify it
//	xpdump -events run.events                 # summarize an event log
//	xpdump -events run.events -keys           # ...printing every event
//
// -verify re-reads the named SST end to end: the whole-file CRC-32C is
// checked against the checksum recorded in the live MANIFEST (when the
// file is live there), then every block CRC — footer, filter, index,
// and all data blocks. Exit status is non-zero on any mismatch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/events"
	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
	"xpointdb/internal/sstable"
	"xpointdb/internal/vfs"
	"xpointdb/internal/wal"
)

func main() {
	log.SetFlags(0)
	var (
		dbDir    = flag.String("db", "", "database directory (required unless -events)")
		file     = flag.String("file", "", "file to dump; empty = directory overview")
		showKeys = flag.Bool("keys", false, "list every key (SSTs and WALs) / every event (-events)")
		verify   = flag.Bool("verify", false, "checksum-verify -file (SSTs): whole-file CRC vs the MANIFEST plus every block CRC")
		evFile   = flag.String("events", "", "engine event-log file (JSON lines) to summarize")
	)
	flag.Parse()
	if *evFile != "" {
		dumpEvents(*evFile, *showKeys)
		return
	}
	if *dbDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	fs, err := vfs.NewOS(*dbDir)
	if err != nil {
		log.Fatal(err)
	}
	if *file == "" {
		overview(fs)
		return
	}
	typ, _ := manifest.ParseName(*file)
	switch typ {
	case manifest.TypeSST:
		if *verify {
			verifySST(fs, *file)
			return
		}
		dumpSST(fs, *file, *showKeys)
	case manifest.TypeWAL:
		dumpWAL(fs, *file, *showKeys)
	case manifest.TypeManifest:
		dumpManifest(fs, *file)
	case manifest.TypeCurrent:
		dumpCurrent(fs)
	default:
		log.Fatalf("don't know how to dump %q", *file)
	}
}

func overview(fs vfs.FS) {
	names, err := fs.List()
	if err != nil {
		log.Fatal(err)
	}
	var totalSST, nSST int64
	for _, n := range names {
		size, _ := fs.Size(n)
		typ, num := manifest.ParseName(n)
		var kind string
		switch typ {
		case manifest.TypeSST:
			kind = "sst"
			totalSST += size
			nSST++
		case manifest.TypeWAL:
			kind = "wal"
		case manifest.TypeManifest:
			kind = "manifest"
		case manifest.TypeCurrent:
			kind = "current"
		default:
			kind = "?"
		}
		fmt.Printf("%-20s %-9s num=%-6d %10d bytes\n", n, kind, num, size)
	}
	fmt.Printf("\n%d SSTs, %d bytes total\n", nSST, totalSST)

	// Show the live version per CURRENT, if parseable.
	set, err := manifest.Recover(fs)
	if err != nil {
		fmt.Printf("(manifest not readable: %v)\n", err)
		return
	}
	defer set.Close()
	fmt.Printf("\nlive version (next file %d, last seq %d, log %d):\n%s",
		set.NextFileNum, set.LastSeq, set.LogNum, set.Current().DebugString())
}

func dumpSST(fs vfs.FS, name string, showKeys bool) {
	size, err := fs.Size(name)
	if err != nil {
		log.Fatal(err)
	}
	f, err := fs.Open(name)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	_, num := manifest.ParseName(name)
	r, err := sstable.NewReader(f, size, num, nil)
	if err != nil {
		log.Fatalf("open table: %v", err)
	}
	it := r.NewIter()
	var n, sets, dels int
	var firstKey, lastKey []byte
	var keyBytes, valBytes int64
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if n == 0 {
			firstKey = append([]byte(nil), it.Key()...)
		}
		lastKey = append(lastKey[:0], it.Key()...)
		if _, kind := keys.Trailer(it.Key()); kind == keys.KindDelete {
			dels++
		} else {
			sets++
		}
		keyBytes += int64(len(it.Key()))
		valBytes += int64(len(it.Value()))
		if showKeys {
			fmt.Printf("  %s = %d bytes\n", keys.String(it.Key()), len(it.Value()))
		}
		n++
	}
	if err := it.Error(); err != nil {
		log.Fatalf("scan: %v", err)
	}
	fmt.Printf("%s: %d bytes, %d entries (%d sets, %d tombstones)\n", name, size, n, sets, dels)
	fmt.Printf("keys %d bytes, values %d bytes\n", keyBytes, valBytes)
	if n > 0 {
		fmt.Printf("range: %s .. %s\n", keys.String(firstKey), keys.String(lastKey))
	}
}

// verifySST re-reads name end to end and exits non-zero on any
// checksum mismatch: the whole-file CRC-32C against the MANIFEST's
// recorded value (when the file is live), then every block CRC.
func verifySST(fs vfs.FS, name string) {
	size, err := fs.Size(name)
	if err != nil {
		log.Fatal(err)
	}
	f, err := fs.Open(name)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	_, num := manifest.ParseName(name)
	sum, live := recordedChecksum(fs, num)
	r, err := sstable.NewReader(f, size, num, nil)
	if err != nil {
		log.Fatalf("CORRUPT: %v", err)
	}
	st, err := r.Verify(sum, nil)
	if err != nil {
		log.Fatalf("CORRUPT: %v", err)
	}
	if live {
		fmt.Printf("%s: OK — file CRC %#08x matches MANIFEST; %d blocks, %d bytes verified\n",
			name, sum, st.Blocks, st.Bytes)
	} else {
		fmt.Printf("%s: OK — %d blocks, %d bytes verified (file not in the live MANIFEST; no file CRC on record)\n",
			name, st.Blocks, st.Bytes)
	}
}

// recordedChecksum replays the live MANIFEST read-only and returns the
// whole-file checksum recorded for SST num, plus whether the file is
// live at all. Unlike manifest.Recover this never opens a new manifest
// or takes ownership of the directory — it is a pure reader, safe to
// run against a directory another process has open.
func recordedChecksum(fs vfs.FS, num uint64) (uint32, bool) {
	cf, err := fs.Open(manifest.CurrentName)
	if err != nil {
		return 0, false
	}
	buf := make([]byte, 64)
	n, _ := cf.ReadAt(buf, 0)
	cf.Close()
	mname := strings.TrimSpace(string(buf[:n]))
	if typ, _ := manifest.ParseName(mname); typ != manifest.TypeManifest {
		return 0, false
	}
	mf, err := fs.Open(mname)
	if err != nil {
		return 0, false
	}
	defer mf.Close()
	r := wal.NewReader(mf)
	sums := map[uint64]uint32{}
	for {
		rec, err := r.ReadRecord()
		if errors.Is(err, io.EOF) || errors.Is(err, wal.ErrCorrupt) {
			break // torn tail: stop at the last good edit, like recovery
		}
		if err != nil {
			return 0, false
		}
		edit, err := manifest.DecodeEdit(rec)
		if err != nil {
			return 0, false
		}
		for _, a := range edit.Added {
			sums[a.Meta.Num] = a.Meta.Checksum
		}
		for _, d := range edit.Deleted {
			delete(sums, d.Num)
		}
	}
	sum, live := sums[num]
	return sum, live
}

func dumpWAL(fs vfs.FS, name string, showKeys bool) {
	f, err := fs.Open(name)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r := wal.NewReader(f)
	var recs, ops int
	for {
		rec, err := r.ReadRecord()
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, wal.ErrCorrupt) {
			fmt.Printf("(torn tail after %d records)\n", recs)
			break
		}
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		b, err := batch.FromRepr(rec)
		if err != nil {
			log.Fatalf("record %d: %v", recs, err)
		}
		if showKeys {
			fmt.Printf("batch seq=%d count=%d\n", b.Sequence(), b.Count())
			b.Iterate(func(kind keys.Kind, key, value []byte) error {
				op := "SET"
				if kind == keys.KindDelete {
					op = "DEL"
				}
				fmt.Printf("  %s %q (%d bytes)\n", op, key, len(value))
				return nil
			})
		}
		ops += int(b.Count())
		recs++
	}
	fmt.Printf("%s: %d batches, %d operations\n", name, recs, ops)
}

func dumpManifest(fs vfs.FS, name string) {
	f, err := fs.Open(name)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r := wal.NewReader(f)
	v := &manifest.Version{}
	n := 0
	for {
		rec, err := r.ReadRecord()
		if errors.Is(err, io.EOF) || errors.Is(err, wal.ErrCorrupt) {
			break
		}
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		edit, err := manifest.DecodeEdit(rec)
		if err != nil {
			log.Fatalf("edit %d: %v", n, err)
		}
		fmt.Printf("edit %d:", n)
		if edit.LogNum != nil {
			fmt.Printf(" log=%d", *edit.LogNum)
		}
		if edit.NextFileNum != nil {
			fmt.Printf(" next=%d", *edit.NextFileNum)
		}
		if edit.LastSeq != nil {
			fmt.Printf(" seq=%d", *edit.LastSeq)
		}
		for _, a := range edit.Added {
			fmt.Printf(" +L%d:%d(%dB)", a.Level, a.Meta.Num, a.Meta.Size)
		}
		for _, d := range edit.Deleted {
			fmt.Printf(" -L%d:%d", d.Level, d.Num)
		}
		fmt.Println()
		if nv, err := v.Apply(edit); err == nil {
			v = nv
		} else {
			fmt.Printf("  (apply failed: %v)\n", err)
		}
		n++
	}
	fmt.Printf("\nfinal version after %d edits:\n%s", n, v.DebugString())
}

// dumpEvents summarizes a JSON-lines engine event stream: per-kind
// counts, background I/O totals, the stall-episode transition log and
// the Algorithm 1 rate trajectory.
func dumpEvents(path string, verbose bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	evs, err := events.Decode(f)
	if err != nil {
		log.Fatalf("decode: %v (after %d events)", err, len(evs))
	}

	counts := map[events.Kind]int{}
	var flushBytes, flushUS int64
	var compRead, compWritten, compUS int64
	var walBytes, walUS int64
	var zombies int
	var stalls []events.Event
	var rateSteps, decSteps int
	minRate, maxRate := 0.0, 0.0
	for _, e := range evs {
		counts[e.Kind]++
		if verbose {
			fmt.Println(e)
		}
		switch e.Kind {
		case events.KindFlushEnd:
			flushBytes += e.Flush.Bytes
			flushUS += e.Flush.DurationUS
		case events.KindCompactionEnd:
			compRead += e.Compaction.BytesRead
			compWritten += e.Compaction.BytesWritten
			compUS += e.Compaction.DurationUS
		case events.KindWALSync:
			walBytes += e.WALSync.Bytes
			walUS += e.WALSync.DurationUS
		case events.KindObsoleteGC:
			zombies += e.ObsoleteGC.Count
		case events.KindStallChange:
			stalls = append(stalls, e)
		case events.KindRateChange:
			rateSteps++
			if e.Rate.Behind {
				decSteps++
			}
			if minRate == 0 || e.Rate.NewRate < minRate {
				minRate = e.Rate.NewRate
			}
			if e.Rate.NewRate > maxRate {
				maxRate = e.Rate.NewRate
			}
		}
	}
	if verbose && len(evs) > 0 {
		fmt.Println()
	}

	fmt.Printf("%s: %d events", path, len(evs))
	if len(evs) > 0 {
		fmt.Printf(" over %v", evs[len(evs)-1].TS.Sub(evs[0].TS).Round(time.Millisecond))
	}
	fmt.Println()
	for _, k := range []events.Kind{
		events.KindFlushBegin, events.KindFlushEnd,
		events.KindCompactionBegin, events.KindCompactionEnd,
		events.KindStallChange, events.KindRateChange, events.KindWALSync,
		events.KindSuperVersionInstall, events.KindObsoleteGC,
	} {
		if counts[k] > 0 {
			fmt.Printf("  %-17s %d\n", k, counts[k])
		}
	}
	if counts[events.KindFlushEnd] > 0 {
		fmt.Printf("flush      : %d B to L0 in %v\n", flushBytes, time.Duration(flushUS)*time.Microsecond)
	}
	if counts[events.KindCompactionEnd] > 0 {
		fmt.Printf("compaction : read %d B, wrote %d B in %v\n",
			compRead, compWritten, time.Duration(compUS)*time.Microsecond)
	}
	if counts[events.KindWALSync] > 0 {
		fmt.Printf("wal syncs  : %d B in %v\n", walBytes, time.Duration(walUS)*time.Microsecond)
	}
	if zombies > 0 {
		fmt.Printf("zombie gc  : %d SST(s) deleted in %d sweeps\n", zombies, counts[events.KindObsoleteGC])
	}
	if rateSteps > 0 {
		fmt.Printf("rate steps : %d (%d dec ×0.8, %d inc ×1.25), range %.1f–%.1f MB/s\n",
			rateSteps, decSteps, rateSteps-decSteps, minRate/(1<<20), maxRate/(1<<20))
	}
	if len(stalls) > 0 {
		fmt.Printf("stall transitions:\n")
		for _, e := range stalls {
			fmt.Printf("  %s\n", e)
		}
	}
}

func dumpCurrent(fs vfs.FS) {
	f, err := fs.Open(manifest.CurrentName)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64)
	n, _ := f.ReadAt(buf, 0)
	fmt.Printf("CURRENT -> %s", buf[:n])
}
