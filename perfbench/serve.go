package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// feedClient is the site's one SSE subscriber. It timestamps every
// frame as it reads it and matches the frame's id to the moment the
// site tap received that event.
type feedClient struct {
	body io.ReadCloser
	obs  *observer
	done chan struct{}

	mu       sync.Mutex
	received uint64
	lags     *samples // ns
}

func dialFeed(base, site string, obs *observer, lags *samples) (*feedClient, error) {
	resp, err := http.Get(base + "/api/v1/sites/" + site + "/feed")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("feed: HTTP %d", resp.StatusCode)
	}
	fc := &feedClient{body: resp.Body, obs: obs, lags: lags, done: make(chan struct{})}
	go fc.read()
	return fc, nil
}

func (fc *feedClient) read() {
	defer close(fc.done)
	br := bufio.NewReader(fc.body)
	lineStart := true
	for {
		// Data lines carrying score vectors outgrow the buffer; only the
		// short id lines are parsed, so longer lines are skipped in
		// pieces.
		line, err := br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return
		}
		atStart := lineStart
		lineStart = err == nil
		if !atStart || !bytes.HasPrefix(line, []byte("id: ")) {
			continue
		}
		now := fc.obs.now()
		id, err := strconv.ParseUint(string(bytes.TrimSpace(line[4:])), 10, 64)
		if err != nil {
			continue
		}
		fc.mu.Lock()
		fc.received++
		if at, ok := fc.obs.feedStampOf(id); ok {
			fc.lags.add(float64(now - at))
		}
		fc.mu.Unlock()
	}
}

// drain waits until every published event was either read or counted
// as dropped by the fanout, and returns how many are still missing when
// the wait gives up.
func (fc *feedClient) drain(published uint64, dropped func() uint64) uint64 {
	deadline := time.Now().Add(5 * time.Second)
	for {
		fc.mu.Lock()
		got := fc.received
		fc.mu.Unlock()
		if got+dropped() >= published {
			return 0
		}
		if time.Now().After(deadline) {
			return published - got - dropped()
		}
		time.Sleep(time.Millisecond)
	}
}

func (fc *feedClient) close() {
	fc.body.Close()
	<-fc.done
}

// readEvery is the reader's period on the replayed capture's clock.
// The deployment modelled is one site read by one Prometheus server
// scraping /metrics at Prometheus's default scrape interval of one
// minute, and one operator dashboard refreshing its sender table and
// the detail of one sender at the same period — the detection window,
// the period at which verdicts change. Rotating over the three reads,
// one is due every 20 s of capture time. Tying the schedule to the
// capture's clock rather than the wall clock keeps the reads per record
// fixed: the reader's CPU and allocations are a constant share of the
// replay's, however fast it runs, so a faster server raises
// frames_per_cpu_s and a faster ingest leaves allocs_per_frame alone.
const readEvery = 20 * time.Second

// readClock is the producer's side of the reader's schedule: read k is
// due when the replay reaches the first record at or past
// anchor + k·readEvery, and is handed to the reader with that wall
// instant.
type readClock struct {
	next   int64 // capture µs at which the next read falls due
	due    chan time.Time
	missed uint64 // due reads the reader's queue had no room for
}

func newReadClock() *readClock {
	return &readClock{next: math.MinInt64, due: make(chan time.Time, 1024)}
}

// noReads is the schedule of a pipeline without a server: it never
// falls due.
func noReads() *readClock { return &readClock{next: math.MaxInt64} }

// fire is called for a record at or past next; it hands over every read
// that fell due up to t (several after a gap in the capture).
func (c *readClock) fire(t int64) {
	if c.next == math.MinInt64 {
		c.next = t
	}
	now := time.Now()
	for ; c.next <= t; c.next += readEvery.Microseconds() {
		select {
		case c.due <- now:
		default:
			c.missed++
		}
	}
}

// reader is the open-loop query generator. Each read is issued at its
// due time on its own goroutine, whatever happened to earlier reads,
// rotating over the senders listing, one sender's verdict and /metrics.
// Latency runs from the due time; the generator's own lateness (how long
// after the due time the read was issued) is recorded to show whether
// the latencies are valid.
type reader struct {
	base, site string
	obs        *observer
	client     *http.Client
	due        <-chan time.Time
	done       chan struct{}

	mu                sync.Mutex
	lat, late         *samples // ns
	attempted, failed uint64
}

// maxInFlight bounds concurrent reads; a read due while this many are
// outstanding is refused and counted as failed. queryTimeout bounds a
// read measured from when it was due, so a generator that falls behind
// turns its lateness into failures. Neither is reached in the recorded
// runs (README.md): they only keep a stalled server from piling up
// goroutines.
const (
	maxInFlight  = 32
	queryTimeout = time.Second
)

func newReader(base, site string, obs *observer, lat, late *samples) *reader {
	return &reader{
		base: base, site: site, obs: obs, lat: lat, late: late,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxInFlight}},
		done:   make(chan struct{}),
	}
}

// start issues the reads that fall due on clock until the producer
// closes it.
func (r *reader) start(clock *readClock) {
	r.due = clock.due
	go r.run()
}

func (r *reader) run() {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		r.client.CloseIdleConnections()
		close(r.done)
	}()
	sem := make(chan struct{}, maxInFlight)
	for k := 0; ; k++ {
		due, ok := <-r.due
		if !ok {
			return
		}
		r.mu.Lock()
		r.attempted++
		r.late.add(float64(time.Since(due)))
		r.mu.Unlock()
		select {
		case sem <- struct{}{}:
		default:
			r.mu.Lock()
			r.failed++
			r.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ok := r.get(due, r.path(k))
			lat := float64(time.Since(due))
			r.mu.Lock()
			defer r.mu.Unlock()
			if ok {
				r.lat.add(lat)
			} else {
				r.failed++
			}
		}()
	}
}

func (r *reader) path(k int) string {
	site := "/api/v1/sites/" + r.site
	switch k % 3 {
	case 0:
		return site + "/senders"
	case 1:
		if a := r.obs.lastAddr.Load(); a != nil {
			return site + "/senders/" + *a
		}
		return site + "/senders"
	default:
		return "/metrics"
	}
}

// get performs one read and reports whether it succeeded: a 2xx
// response fully read before due+queryTimeout.
func (r *reader) get(due time.Time, path string) bool {
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(queryTimeout))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return false
	}
	return resp.StatusCode/100 == 2
}

// wait returns once the producer has closed the schedule and every
// read has ended.
func (r *reader) wait() { <-r.done }

// calibrationReads is how many reads readCost times.
const calibrationReads = 300

// readCost measures what one read costs the process, client and server
// together: CPU time and heap objects per read, over calibrationReads
// reads issued one after another against a pipeline that has replayed
// rep and gone idle, so the site holds a whole capture's sender table.
// It runs before timing; the figures put the reader's share of a
// cycle's CPU and allocations on the printed table.
func (r *runner) readCost(rep *replica) error {
	obs := newObserver(false, false)
	obs.stamps = r.stamps
	defer r.stamps.reset()
	p, err := build(r.sp, rep, obs, !r.sp.sharded, true)
	if err != nil {
		return err
	}
	src, done, err := source(rep)
	if err != nil {
		return err
	}
	grid := windowGrid{w: r.sp.window.Microseconds()}
	_, err = replay(p, obs, src, &grid, noReads())
	p.eng.Close()
	if _, derr := done(); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	rd := newReader("http://"+p.srv.Addr(), r.sp.name, obs, nil, nil)
	runtime.GC()
	a0, c0 := heapAllocs(), cpuTime()
	for k := 0; k < calibrationReads; k++ {
		if !rd.get(time.Now(), rd.path(k)) {
			err = fmt.Errorf("read %s failed", rd.path(k))
			break
		}
	}
	r.readCPU = (cpuTime() - c0) / calibrationReads
	r.readAllocs = float64(heapAllocs()-a0) / calibrationReads
	rd.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := p.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}
