package events

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// sampleEvents returns one fully populated event of every kind.
func sampleEvents() []Event {
	ts := time.Date(2020, 1, 1, 0, 0, 1, 500, time.UTC)
	return []Event{
		{TS: ts, Kind: KindFlushBegin, Flush: &Flush{
			Reason: "memtable-full", WALNum: 7, Immutables: 2, Bytes: 65536,
		}},
		{TS: ts.Add(time.Millisecond), Kind: KindFlushEnd, Flush: &Flush{
			Reason: "memtable-full", WALNum: 7, OutputFile: 9, Bytes: 60000,
			L0Files: 5, DurationUS: 950,
		}},
		{TS: ts.Add(2 * time.Millisecond), Kind: KindCompactionBegin, Compaction: &Compaction{
			Level: 0, OutputLevel: 1, Score: 1.25, InputFiles: 5, OverlapFiles: 2,
			BytesRead: 300000,
		}},
		{TS: ts.Add(9 * time.Millisecond), Kind: KindCompactionEnd, Compaction: &Compaction{
			Level: 0, OutputLevel: 1, Score: 1.25, InputFiles: 5, OverlapFiles: 2,
			OutputFiles: 3, BytesRead: 300000, BytesWritten: 280000, Entries: 4100,
			DurationUS: 7000,
		}},
		{TS: ts.Add(10 * time.Millisecond), Kind: KindStallChange, Stall: &Stall{
			From: "clear", To: "delayed", L0Files: 20, Immutables: 1, Rate: 16 << 20,
		}},
		{TS: ts.Add(11 * time.Millisecond), Kind: KindRateChange, Rate: &Rate{
			OldRate: 16 << 20, NewRate: 0.8 * (16 << 20), Factor: 0.8, Behind: true,
		}},
		{TS: ts.Add(12 * time.Millisecond), Kind: KindWALSync, WALSync: &WALSync{
			WALNum: 7, Bytes: 4096, DurationUS: 42,
		}},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	want := sampleEvents()
	for _, e := range want {
		l.Emit(e)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		want[i].Seq = uint64(i + 1) // the sink assigns Seq
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d round-trip mismatch:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

func TestEventLogConcurrentOrdering(t *testing.T) {
	const goroutines = 8
	const perG = 200
	var buf bytes.Buffer
	l := NewEventLog(&buf)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Emit(Event{Kind: KindWALSync, WALSync: &WALSync{WALNum: uint64(g), Bytes: int64(i)}})
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	evs, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(evs) != goroutines*perG {
		t.Fatalf("got %d events, want %d", len(evs), goroutines*perG)
	}
	// The written stream must carry sink-assigned Seq in strictly
	// increasing order — the total order the engine relies on.
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	// Per-emitter order must be preserved (each goroutine's Bytes
	// values appear ascending).
	next := make([]int64, goroutines)
	for _, e := range evs {
		g := int(e.WALSync.WALNum)
		if e.WALSync.Bytes != next[g] {
			t.Fatalf("goroutine %d events reordered: got %d, want %d", g, e.WALSync.Bytes, next[g])
		}
		next[g]++
	}
}

func TestBufferConcurrent(t *testing.T) {
	var b Buffer
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Emit(Event{Kind: KindFlushBegin, Flush: &Flush{}})
			}
		}()
	}
	wg.Wait()
	evs := b.Events()
	if len(evs) != 400 || b.Len() != 400 {
		t.Fatalf("Buffer holds %d/%d events, want 400", len(evs), b.Len())
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestEventString(t *testing.T) {
	for _, e := range sampleEvents() {
		s := e.String()
		if s == "" {
			t.Fatalf("%s: empty String()", e.Kind)
		}
		// Every rendering embeds a recognizable fragment of its kind.
		frag := strings.SplitN(string(e.Kind), "_", 2)[0]
		if !strings.Contains(s, frag) {
			t.Errorf("%s: String %q does not mention %q", e.Kind, s, frag)
		}
	}
}

func TestDecodeMalformed(t *testing.T) {
	r := strings.NewReader(`{"seq":1,"event":"wal_sync"}` + "\n" + `{bogus`)
	evs, err := Decode(r)
	if err == nil {
		t.Fatal("Decode accepted a malformed line")
	}
	if len(evs) != 1 {
		t.Fatalf("Decode kept %d events before the error, want 1", len(evs))
	}
}

func BenchmarkEventLogEmit(b *testing.B) {
	l := NewEventLog(discard{})
	e := Event{TS: time.Unix(0, 0), Kind: KindWALSync, WALSync: &WALSync{Bytes: 4096}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(e)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
