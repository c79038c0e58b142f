package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"xpointdb/internal/events"
)

func testConfig(h *Hub) Config {
	return Config{
		MetricsText: func(w io.Writer) {
			fmt.Fprintln(w, "# HELP test_ops_total test counter")
			fmt.Fprintln(w, "# TYPE test_ops_total counter")
			fmt.Fprintln(w, "test_ops_total 42")
		},
		StatsText: func() string { return "** stats **\nuptime 1s\n" },
		Health:    func() (bool, string) { return true, "healthy" },
		Hub:       h,
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	s := startServer(t, testConfig(h))
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "test_ops_total 42") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	fams, err := ParsePromText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("metrics body does not parse: %v", err)
	}
	if len(fams) != 1 || fams[0].Type != "counter" {
		t.Fatalf("unexpected families: %+v", fams)
	}

	code, body = get(t, base+"/stats")
	if code != 200 || !strings.Contains(body, "uptime 1s") {
		t.Fatalf("/stats = %d %q", code, body)
	}

	code, body = get(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/")
	if code != 200 || !strings.Contains(body, "xpointdb ops") {
		t.Fatalf("dashboard = %d", code)
	}

	code, _ = get(t, base+"/no-such-page")
	if code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}

	code, body = get(t, base+"/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestServerHealthzUnhealthy(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Health = func() (bool, string) { return false, "read-only: wal device gone" }
	s := startServer(t, cfg)
	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz = %d, want 503", code)
	}
	if !strings.Contains(body, "wal device gone") {
		t.Fatalf("missing detail: %q", body)
	}
}

// sseFrame is one parsed SSE event frame.
type sseFrame struct {
	id    string
	event string
	data  string
}

func readSSEFrames(t *testing.T, r *bufio.Reader, n int, timeout time.Duration) []sseFrame {
	t.Helper()
	type res struct {
		frames []sseFrame
		err    error
	}
	ch := make(chan res, 1)
	go func() {
		var frames []sseFrame
		var cur sseFrame
		for len(frames) < n {
			line, err := r.ReadString('\n')
			if err != nil {
				ch <- res{frames, err}
				return
			}
			line = strings.TrimRight(line, "\r\n")
			switch {
			case line == "":
				if cur.data != "" {
					frames = append(frames, cur)
				}
				cur = sseFrame{}
			case strings.HasPrefix(line, "id: "):
				cur.id = line[4:]
			case strings.HasPrefix(line, "event: "):
				cur.event = line[7:]
			case strings.HasPrefix(line, "data: "):
				cur.data = line[6:]
			case strings.HasPrefix(line, ":"):
				// comment / ping — ignore
			}
		}
		ch <- res{frames, nil}
	}()
	select {
	case r := <-ch:
		if r.err != nil && len(r.frames) < n {
			t.Fatalf("SSE read: %v (got %d/%d frames)", r.err, len(r.frames), n)
		}
		return r.frames
	case <-time.After(timeout):
		t.Fatalf("timed out waiting for %d SSE frames", n)
		return nil
	}
}

func TestServerSSEReplayAndLive(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	for i := 1; i <= 3; i++ {
		h.Emit(mkEvent(i))
	}
	s := startServer(t, testConfig(h))

	resp, err := http.Get("http://" + s.Addr() + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	replay := readSSEFrames(t, br, 3, 5*time.Second)
	for i, f := range replay {
		if f.id != fmt.Sprint(i+1) {
			t.Fatalf("replay frame %d id = %q", i, f.id)
		}
		if f.event != string(events.KindWALSync) {
			t.Fatalf("replay frame %d event = %q", i, f.event)
		}
		var e events.Event
		if err := json.Unmarshal([]byte(f.data), &e); err != nil {
			t.Fatalf("replay frame %d data: %v", i, err)
		}
		if e.WALSync == nil || e.WALSync.Bytes != int64(i+1) {
			t.Fatalf("replay frame %d payload = %+v", i, e)
		}
	}

	// Live event arrives on the open stream.
	h.Emit(mkEvent(4))
	live := readSSEFrames(t, br, 1, 5*time.Second)
	if live[0].id != "4" {
		t.Fatalf("live frame id = %q, want 4", live[0].id)
	}
}

func TestServerSSEClientDisconnect(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	s := startServer(t, testConfig(h))

	for i := 0; i < 5; i++ {
		resp, err := http.Get("http://" + s.Addr() + "/events")
		if err != nil {
			t.Fatalf("GET /events: %v", err)
		}
		resp.Body.Close()
	}
	// After disconnects the hub must not leak subscriptions: a new
	// emission fans out without blocking and the subscriber count
	// returns to zero once handlers notice the closed connections.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.subs)
		h.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriptions still registered after disconnect", n)
		}
		h.Emit(mkEvent(1)) // keep handlers waking so they observe ctx.Done
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerNoHub(t *testing.T) {
	cfg := testConfig(nil)
	s := startServer(t, cfg)
	code, _ := get(t, "http://"+s.Addr()+"/events")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/events without hub = %d, want 503", code)
	}
}
