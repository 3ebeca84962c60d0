package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dot11fp"
	"dot11fp/internal/cmdutil"
	"dot11fp/internal/dot11"
)

// BenchmarkServerQuery measures one "who is sender X" round trip —
// HTTP, routing, cache lookup and JSON encoding included — against a
// warm verdict cache.
func BenchmarkServerQuery(b *testing.B) {
	db, val := testRefs(b, testTrace(b))
	site := NewSite("bench", SiteOptions{Window: testWindow})
	eng, err := dot11fp.NewEngine(db.Config(), db.Compile(), dot11fp.EngineOptions{
		Window: testWindow, Sink: site.Sink(nil),
	})
	if err != nil {
		b.Fatal(err)
	}
	site.Attach(eng, nil, nil, cmdutil.FromDatabase(db))
	eng.PushTrace(val)
	eng.Close()

	reg := NewRegistry()
	if err := reg.Add(site); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}).Handler())
	defer ts.Close()

	senders := site.rec.list()
	if len(senders) == 0 {
		b.Fatal("no verdicts to query")
	}
	url := ts.URL + "/api/v1/sites/bench/senders/" + senders[0].Addr
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkServedStream replays the validation trace through a live
// engine in three configurations — no server, site taps with an idle
// feed, site taps with one draining SSE client — so the serving tax on
// the streaming path is a measured number (reported as ns/frame).
func BenchmarkServedStream(b *testing.B) {
	db, val := testRefs(b, testTrace(b))
	cfg := db.Config()
	cdb := db.Compile()
	run := func(b *testing.B, attach func(*Site) func()) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sink dot11fp.Sink
			var cleanup func()
			var site *Site
			if attach != nil {
				site = NewSite("bench", SiteOptions{Window: testWindow})
				cleanup = attach(site)
				sink = site.Sink(nil)
			}
			eng, err := dot11fp.NewEngine(cfg, cdb, dot11fp.EngineOptions{Window: testWindow, Sink: sink})
			if err != nil {
				b.Fatal(err)
			}
			if site != nil {
				site.Attach(eng, nil, nil, cmdutil.FromDatabase(db))
			}
			eng.PushTrace(val)
			eng.Close()
			if cleanup != nil {
				cleanup()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(val.Records)), "ns/frame")
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("site-idle-feed", func(b *testing.B) {
		run(b, func(*Site) func() { return func() {} })
	})
	b.Run("site-sse-client", func(b *testing.B) {
		run(b, func(s *Site) func() {
			sub := s.Feed().Subscribe()
			done := make(chan struct{})
			go func() {
				for range sub.C {
				}
				close(done)
			}()
			return func() {
				sub.Close()
				<-done
			}
		})
	})
}

// BenchmarkSSEFanout measures publishing one verdict event to 1, 16 and
// 128 draining subscribers — the encode-once cost plus N non-blocking
// channel sends.
func BenchmarkSSEFanout(b *testing.B) {
	ev := dot11fp.Event(dot11fp.CandidateMatched{
		Window: 3, Addr: dot11.LocalAddr(7),
		Best: dot11fp.Score{Addr: dot11.LocalAddr(7), Sim: 0.97},
		Scores: []dot11fp.Score{
			{Addr: dot11.LocalAddr(7), Sim: 0.97},
			{Addr: dot11.LocalAddr(8), Sim: 0.41},
		},
	})
	for _, clients := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			f := NewFanout(1024)
			subs := make([]*Subscription, clients)
			for i := range subs {
				subs[i] = f.Subscribe()
				go func(s *Subscription) {
					for range s.C {
					}
				}(subs[i])
			}
			// Let the drain goroutines start.
			time.Sleep(time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Publish(ev)
			}
			b.StopTimer()
			for _, s := range subs {
				s.Close()
			}
		})
	}
}
