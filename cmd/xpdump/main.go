// Command xpdump inspects database files — the sst_dump / ldb
// equivalent. It understands all three on-disk formats:
//
//	xpdump -db /path/to/db                    # directory overview
//	xpdump -db /path/to/db -file 000007.sst   # dump one SST
//	xpdump -db /path/to/db -file shard-001/000007.sst  # ...of a sharded store
//	xpdump -db /path/to/db -file 000003.log   # dump one WAL
//	xpdump -db /path/to/db -file MANIFEST-000001
//	xpdump -db /path/to/db -file 000007.sst -keys   # include every key
//	xpdump -db /path/to/db -file 000007.sst -verify # checksum-verify it
//	xpdump -events run.events                 # summarize an event log
//	xpdump -events run.events -keys           # ...printing every event
//
// On a sharded store's root (one shard-NNN/ directory per shard) the
// overview reports each shard in turn, and -file takes a
// shard-NNN/<name> path.
//
// xpdump only reads: it reads CURRENT, MANIFESTs and WALs through the
// readers of the packages that own those formats (manifest.Load,
// manifest.Replay, wal.Replay) and never creates, renames or removes a
// file, so it is safe to run against a store an engine has open.
//
// -verify re-reads the named SST end to end: the whole-file CRC-32C is
// checked against the checksum recorded in the live MANIFEST (when the
// file is live there), then every block CRC — footer, filter, index,
// and all data blocks. Exit status is non-zero on any mismatch, and on
// a MANIFEST that cannot be replayed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// errUsage marks a command line run cannot act on; the usage text has
// already been printed.
var errUsage = errors.New("xpdump: usage")

// run is the whole command: it parses args and writes the dump to w.
func run(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("xpdump", flag.ContinueOnError)
	var (
		dbDir    = fl.String("db", "", "database directory or a sharded store's root (required unless -events)")
		file     = fl.String("file", "", "file to dump (shard-NNN/<name> in a sharded store); empty = directory overview, per shard")
		showKeys = fl.Bool("keys", false, "list every key (SSTs and WALs) / every event (-events)")
		verify   = fl.Bool("verify", false, "checksum-verify -file (SSTs): whole-file CRC vs the MANIFEST plus every block CRC")
		evFile   = fl.String("events", "", "engine event-log file (JSON lines) to summarize")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *evFile != "" {
		return dumpEvents(w, *evFile, *showKeys)
	}
	if *dbDir == "" {
		fl.Usage()
		return fmt.Errorf("%w: -db is required", errUsage)
	}
	// vfs.NewOS creates a missing directory; an inspector must not.
	if fi, err := os.Stat(*dbDir); err != nil {
		return err
	} else if !fi.IsDir() {
		return fmt.Errorf("xpdump: %s is not a directory", *dbDir)
	}
	root, err := vfs.NewOS(*dbDir)
	if err != nil {
		return err
	}
	if *file == "" {
		return overviewShards(w, root)
	}
	// A shard's file is read through the shard's own namespace, where
	// its CURRENT and MANIFEST live.
	var fs vfs.FS = root
	name := *file
	if dir, base, ok := strings.Cut(name, "/"); ok {
		fs, name = vfs.NewPrefix(fs, dir+"/"), base
	}
	switch typ, _ := manifest.ParseName(name); typ {
	case manifest.TypeSST:
		if *verify {
			return verifySST(w, fs, name)
		}
		return dumpSST(w, fs, name, *showKeys)
	case manifest.TypeWAL:
		return dumpWAL(w, fs, name, *showKeys)
	case manifest.TypeManifest:
		return dumpManifest(w, fs, name)
	case manifest.TypeCurrent:
		name, err := manifest.ReadCurrent(fs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "CURRENT -> %s\n", name)
		return nil
	}
	return fmt.Errorf("xpdump: don't know how to dump %q", *file)
}

// overviewShards prints the overview of the store at fs, or of each
// shard in turn when fs is a sharded store's root.
func overviewShards(w io.Writer, fs vfs.FS) error {
	names, err := fs.List()
	if err != nil {
		return err
	}
	var shards []string // List is sorted, so a shard's names are adjacent
	for _, n := range names {
		if dir, _, ok := strings.Cut(n, "/"); ok && strings.HasPrefix(dir, "shard-") &&
			(len(shards) == 0 || shards[len(shards)-1] != dir) {
			shards = append(shards, dir)
		}
	}
	if len(shards) == 0 {
		return overview(w, fs)
	}
	for i, dir := range shards {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "== %s/ ==\n", dir)
		if err := overview(w, vfs.NewPrefix(fs, dir+"/")); err != nil {
			return err
		}
	}
	return nil
}

func overview(w io.Writer, fs vfs.FS) error {
	names, err := fs.List()
	if err != nil {
		return err
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
		fmt.Fprintf(w, "%-20s %-9s num=%-6d %10d bytes\n", n, kind, num, size)
	}
	fmt.Fprintf(w, "\n%d SSTs, %d bytes total\n", nSST, totalSST)

	// Show the live version per CURRENT, if readable.
	st, err := manifest.Load(fs)
	if err != nil {
		fmt.Fprintf(w, "(manifest not readable: %v)\n", err)
		return nil
	}
	fmt.Fprintf(w, "\nlive version (next file %d, last seq %d, log %d):\n%s",
		st.NextFileNum, st.LastSeq, st.LogNum, st.Current().DebugString())
	return nil
}

func dumpSST(w io.Writer, fs vfs.FS, name string, showKeys bool) error {
	size, err := fs.Size(name)
	if err != nil {
		return err
	}
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	_, num := manifest.ParseName(name)
	r, err := sstable.NewReader(f, size, num, nil)
	if err != nil {
		return fmt.Errorf("open table: %w", err)
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
			fmt.Fprintf(w, "  %s = %d bytes\n", keys.String(it.Key()), len(it.Value()))
		}
		n++
	}
	if err := it.Error(); err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	fmt.Fprintf(w, "%s: %d bytes, %d entries (%d sets, %d tombstones)\n", name, size, n, sets, dels)
	fmt.Fprintf(w, "keys %d bytes, values %d bytes\n", keyBytes, valBytes)
	if n > 0 {
		fmt.Fprintf(w, "range: %s .. %s\n", keys.String(firstKey), keys.String(lastKey))
	}
	return nil
}

// verifySST re-reads name end to end and fails on any checksum
// mismatch: the whole-file CRC-32C against the value the live MANIFEST
// records (when the file is live), then every block CRC.
func verifySST(w io.Writer, fs vfs.FS, name string) error {
	st, err := manifest.Load(fs)
	if err != nil {
		return err
	}
	size, err := fs.Size(name)
	if err != nil {
		return err
	}
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	_, num := manifest.ParseName(name)
	var sum uint32
	_, meta := st.Current().File(num)
	if meta != nil {
		sum = meta.Checksum
	}
	r, err := sstable.NewReader(f, size, num, nil)
	if err != nil {
		return fmt.Errorf("CORRUPT: %w", err)
	}
	vs, err := r.Verify(sum, nil)
	if err != nil {
		return fmt.Errorf("CORRUPT: %w", err)
	}
	if meta != nil {
		fmt.Fprintf(w, "%s: OK — file CRC %#08x matches MANIFEST; %d blocks, %d bytes verified\n",
			name, sum, vs.Blocks, vs.Bytes)
	} else {
		fmt.Fprintf(w, "%s: OK — %d blocks, %d bytes verified (file not in the live MANIFEST; no file CRC on record)\n",
			name, vs.Blocks, vs.Bytes)
	}
	return nil
}

func dumpWAL(w io.Writer, fs vfs.FS, name string, showKeys bool) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	var recs, ops int
	torn, err := wal.Replay(f, func(rec []byte) error {
		b, err := batch.FromRepr(rec)
		if err != nil {
			return fmt.Errorf("record %d: %w", recs, err)
		}
		if showKeys {
			fmt.Fprintf(w, "batch seq=%d count=%d\n", b.Sequence(), b.Count())
			b.Iterate(func(kind keys.Kind, key, value []byte) error {
				op := "SET"
				if kind == keys.KindDelete {
					op = "DEL"
				}
				fmt.Fprintf(w, "  %s %q (%d bytes)\n", op, key, len(value))
				return nil
			})
		}
		ops += int(b.Count())
		recs++
		return nil
	})
	if err != nil {
		return err
	}
	if torn {
		fmt.Fprintf(w, "(torn tail after %d records)\n", recs)
	}
	fmt.Fprintf(w, "%s: %d batches, %d operations\n", name, recs, ops)
	return nil
}

func dumpManifest(w io.Writer, fs vfs.FS, name string) error {
	v := &manifest.Version{}
	n := 0
	err := manifest.Replay(fs, name, func(edit *manifest.Edit) error {
		fmt.Fprintf(w, "edit %d:", n)
		if edit.LogNum != nil {
			fmt.Fprintf(w, " log=%d", *edit.LogNum)
		}
		if edit.NextFileNum != nil {
			fmt.Fprintf(w, " next=%d", *edit.NextFileNum)
		}
		if edit.LastSeq != nil {
			fmt.Fprintf(w, " seq=%d", *edit.LastSeq)
		}
		for _, a := range edit.Added {
			fmt.Fprintf(w, " +L%d:%d(%dB)", a.Level, a.Meta.Num, a.Meta.Size)
		}
		for _, d := range edit.Deleted {
			fmt.Fprintf(w, " -L%d:%d", d.Level, d.Num)
		}
		fmt.Fprintln(w)
		if nv, err := v.Apply(edit); err == nil {
			v = nv
		} else {
			fmt.Fprintf(w, "  (apply failed: %v)\n", err)
		}
		n++
		return nil
	})
	if err != nil {
		return fmt.Errorf("edit %d: %w", n, err)
	}
	fmt.Fprintf(w, "\nfinal version after %d edits:\n%s", n, v.DebugString())
	return nil
}

// dumpEvents summarizes a JSON-lines engine event stream: per-kind
// counts, background I/O totals, the stall-episode transition log and
// the Algorithm 1 rate trajectory.
func dumpEvents(w io.Writer, path string, verbose bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := events.Decode(f)
	if err != nil {
		return fmt.Errorf("decode: %w (after %d events)", err, len(evs))
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
			fmt.Fprintln(w, e)
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
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "%s: %d events", path, len(evs))
	if len(evs) > 0 {
		fmt.Fprintf(w, " over %v", evs[len(evs)-1].TS.Sub(evs[0].TS).Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	for _, k := range []events.Kind{
		events.KindFlushBegin, events.KindFlushEnd,
		events.KindCompactionBegin, events.KindCompactionEnd,
		events.KindStallChange, events.KindRateChange, events.KindWALSync,
		events.KindSuperVersionInstall, events.KindObsoleteGC,
	} {
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-17s %d\n", k, counts[k])
		}
	}
	if counts[events.KindFlushEnd] > 0 {
		fmt.Fprintf(w, "flush      : %d B to L0 in %v\n", flushBytes, time.Duration(flushUS)*time.Microsecond)
	}
	if counts[events.KindCompactionEnd] > 0 {
		fmt.Fprintf(w, "compaction : read %d B, wrote %d B in %v\n",
			compRead, compWritten, time.Duration(compUS)*time.Microsecond)
	}
	if counts[events.KindWALSync] > 0 {
		fmt.Fprintf(w, "wal syncs  : %d B in %v\n", walBytes, time.Duration(walUS)*time.Microsecond)
	}
	if zombies > 0 {
		fmt.Fprintf(w, "zombie gc  : %d SST(s) deleted in %d sweeps\n", zombies, counts[events.KindObsoleteGC])
	}
	if rateSteps > 0 {
		fmt.Fprintf(w, "rate steps : %d (%d dec ×0.8, %d inc ×1.25), range %.1f–%.1f MB/s\n",
			rateSteps, decSteps, rateSteps-decSteps, minRate/(1<<20), maxRate/(1<<20))
	}
	if len(stalls) > 0 {
		fmt.Fprintf(w, "stall transitions:\n")
		for _, e := range stalls {
			fmt.Fprintf(w, "  %s\n", e)
		}
	}
	return nil
}
