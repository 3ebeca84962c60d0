package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"dot11fp"
	"dot11fp/internal/cmdutil"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    string
	event string
	data  string
}

func parseSSE(t testing.TB, body string) []sseFrame {
	t.Helper()
	var out []sseFrame
	for _, block := range strings.Split(body, "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var f sseFrame
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				f.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			}
		}
		out = append(out, f)
	}
	return out
}

// TestFeedStreamsEventSequence pins acceptance criterion (b)'s fast
// half over real HTTP: an SSE client that keeps up receives exactly the
// event sequence the direct sink saw — same order, same encoding, no
// drops.
func TestFeedStreamsEventSequence(t *testing.T) {
	t.Parallel()
	db, val := testRefs(t, testTrace(t))
	site := NewSite("feed", SiteOptions{Window: testWindow, FeedBuffer: 8192})
	var direct eventLog
	eng, err := dot11fp.NewEngine(db.Config(), db.Compile(), dot11fp.EngineOptions{
		Window: testWindow, Sink: site.Sink(&direct),
	})
	if err != nil {
		t.Fatal(err)
	}
	site.Attach(eng, nil, nil, cmdutil.FromDatabase(db))
	srv, ts := serveSites(t, Options{}, site)

	// Connect before driving: once the response headers are in, the
	// subscription is live.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/v1/sites/feed/feed", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("feed Content-Type %q", ct)
	}
	done := make(chan string, 1)
	go func() {
		var sb strings.Builder
		rd := bufio.NewReader(resp.Body)
		buf := make([]byte, 4096)
		for {
			n, err := rd.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				done <- sb.String()
				return
			}
		}
	}()

	eng.PushTrace(val)
	eng.Close()
	// Shutdown releases the feed handler; the client sees EOF after the
	// last buffered frame.
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	srv.Shutdown(shCtx)
	var body string
	select {
	case body = <-done:
	case <-ctx.Done():
		t.Fatal("feed read never finished")
	}

	events := direct.snapshot()
	if len(events) == 0 {
		t.Fatal("direct sink saw no events")
	}
	frames := parseSSE(t, body)
	if len(frames) != len(events) {
		t.Fatalf("feed delivered %d frames, direct sink saw %d events", len(frames), len(events))
	}
	if st := site.Feed().Stats(); st.Dropped != 0 || st.Events != uint64(len(events)) {
		t.Fatalf("feed stats %+v, want %d events and no drops", st, len(events))
	}
	// Frame-for-frame identical to the canonical encoding, ids 1..N.
	for i, ev := range events {
		want, ok := encodeSSE(uint64(i+1), ev)
		if !ok {
			t.Fatalf("event %d (%T) not encodable", i, ev)
		}
		f := frames[i]
		rebuilt := fmt.Sprintf("id: %s\nevent: %s\ndata: %s\n\n", f.id, f.event, f.data)
		if rebuilt != string(want) {
			t.Fatalf("frame %d:\n got %q\nwant %q", i, rebuilt, want)
		}
	}
}

// TestFanoutSlowClientDropsFastClientLossless pins acceptance criterion
// (b)'s slow half: a subscriber that never reads loses exactly the
// overflow (counted per client and in the total) while a draining
// subscriber concurrently receives every frame in order.
func TestFanoutSlowClientDropsFastClientLossless(t *testing.T) {
	t.Parallel()
	const buffer, n = 4, 100
	f := NewFanout(buffer)
	slow := f.Subscribe()
	fast := f.Subscribe()

	// The fast client drains after every publish, so its buffer never
	// overflows; the slow one never reads and overflows after `buffer`.
	var frames []sseFrame
	for i := 0; i < n; i++ {
		f.Publish(dot11fp.WindowClosed{Window: i, Frames: i})
		frames = append(frames, parseSSE(t, string(<-fast.C))...)
	}
	fast.Close()

	if len(frames) != n {
		t.Fatalf("fast client received %d frames, want %d", len(frames), n)
	}
	for i, fr := range frames {
		if fr.id != fmt.Sprint(i+1) || fr.event != "window_closed" {
			t.Fatalf("fast frame %d: id %q event %q", i, fr.id, fr.event)
		}
	}
	if fast.Dropped() != 0 {
		t.Fatalf("fast client dropped %d frames", fast.Dropped())
	}
	if d := slow.Dropped(); d != n-buffer {
		t.Fatalf("slow client dropped %d frames, want %d", d, n-buffer)
	}
	if st := f.Stats(); st.Dropped != n-buffer || st.Events != n {
		t.Fatalf("fanout stats %+v, want %d events and %d drops", st, n, n-buffer)
	}
	// The slow client's buffer still holds the first frames, in order.
	slow.Close()
	i := 0
	for frame := range slow.C {
		for _, fr := range parseSSE(t, string(frame)) {
			if fr.id != fmt.Sprint(i+1) {
				t.Fatalf("slow frame %d has id %q", i, fr.id)
			}
			i++
		}
	}
	if i != buffer {
		t.Fatalf("slow client buffered %d frames, want %d", i, buffer)
	}
}

// TestFanoutIdleSkipsEncoding pins the zero-client fast path: events
// are counted but never encoded, so an unobserved feed costs nothing
// beyond one atomic add.
func TestFanoutIdleSkipsEncoding(t *testing.T) {
	t.Parallel()
	f := NewFanout(0)
	for i := 0; i < 10; i++ {
		f.Publish(dot11fp.WindowClosed{Window: i})
	}
	if st := f.Stats(); st.Events != 10 || st.Clients != 0 || st.Dropped != 0 {
		t.Fatalf("idle fanout stats %+v", st)
	}
	// seq only advances when a frame is actually encoded.
	if got := f.seq.Load(); got != 0 {
		t.Fatalf("idle fanout encoded %d frames", got)
	}
	ev := dot11fp.Event(dot11fp.WindowClosed{Window: 1})
	allocs := testing.AllocsPerRun(100, func() {
		f.Publish(ev)
	})
	if allocs != 0 {
		t.Fatalf("idle publish allocated %v times, want 0", allocs)
	}
}
