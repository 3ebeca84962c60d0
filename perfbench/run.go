package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/engine"
)

// runner drives one invocation: synthesis, the reference runs, a
// warm-up pass, then timed cycles until the budget is spent. A cycle
// replays every replica once, each pass on a freshly built pipeline.
type runner struct {
	sp     *spec
	seed   uint64
	budget time.Duration
	traced bool

	in *inputs
	tr *tracer

	// Per-event samples of every timed pass, pooled over the run and
	// kept outside the Go heap (see samples), and the current pass's SSE
	// publication stamps.
	lag, feed, query, late, stamps *samples

	probe      [2]time.Duration // hostProbe before synthesis and after the cycles
	readCPU    time.Duration    // one read's CPU, client and server (readCost)
	readAllocs float64          // one read's heap objects, client and server
}

// pass is what one replay of one replica measured.
type pass struct {
	traced  bool
	records uint64
	elapsed time.Duration // first Next to Close returned: last verdict delivered
	cpu     time.Duration // process CPU time over the same span
	setup   time.Duration
	load    time.Duration
	compile time.Duration
	index   core.IndexStats
	allocs  uint64
	close   time.Duration

	skipped, dropped, panics uint64
	heapPeak                 uint64
	lags                     []float64 // this pass's slice of the pooled verdict lags, ns

	queries, queryFailed         uint64
	published, feedDropped, lost uint64
	sinkNs                       int64

	pushNs         int64
	liveMax        int
	evicted        uint64
	emitNs         []float64
	trainerSteps   []float64
	queueMax       int
	trainer        engine.TrainerStats
	clusterDevices int
	clusterBinds   int
	clusterRebound uint64
	windows        []*windowCands
}

// cycle is one replay of every replica, summarised as soon as it ends
// so that per-event samples are not retained across cycles (they would
// grow the live heap the benchmark measures).
type cycle struct {
	traced bool
	passes []*pass

	records, allocs  uint64
	elapsed, cpu     time.Duration
	queries          uint64
	heapPeak         uint64
	published        uint64
	attempted, fails uint64
	lags, feed       []float64 // this cycle's slice of the pooled samples, ns
}

func summarise(passes []*pass) *cycle {
	c := &cycle{traced: passes[0].traced, passes: passes}
	for _, p := range passes {
		c.records += p.records
		c.allocs += p.allocs
		c.elapsed += p.elapsed
		c.cpu += p.cpu
		c.queries += p.queries
		c.heapPeak = max(c.heapPeak, p.heapPeak)
		c.published += p.published
		c.attempted += p.records + p.skipped + p.queries + p.published
		c.fails += p.skipped + p.dropped + p.panics + p.queryFailed + p.feedDropped + p.lost
	}
	return c
}

// framesPerSec is the cycle's records over its summed replay time.
func (c *cycle) framesPerSec() float64 { return float64(c.records) / c.elapsed.Seconds() }

// framesPerCPUSec is the cycle's records over the process CPU time its
// replays took, every thread counted (producer, shards, collector,
// server, reader). The kernel does not charge a thread for time the
// hypervisor gave the vCPU to another guest, so unlike framesPerSec
// this does not follow the shared host's load (see README.md).
func (c *cycle) framesPerCPUSec() float64 { return float64(c.records) / c.cpu.Seconds() }

const minCycles = 3

func (r *runner) run() (*result, error) {
	r.probe[0] = hostProbe()
	t0 := time.Now()
	in, err := r.sp.synth(r.sp, r.seed)
	if err != nil {
		return nil, fmt.Errorf("synthesising inputs: %w", err)
	}
	r.in = in
	defer in.release()
	runtime.GC()
	debug.FreeOSMemory()
	logf("synthesised %d replicas, %d pcap bytes, in %.1fs", len(in.replicas), in.pcapBytes(), time.Since(t0).Seconds())

	t1 := time.Now()
	err = parallel(len(in.replicas), func(i int) (err error) {
		if in.replicas[i].want, err = reference(r.sp, in.replicas[i]); err != nil {
			return fmt.Errorf("reference run of replica %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, rep := range in.replicas {
		logf("replica %d: %d records, %d verdicts, digest %016x", i, rep.want.records, rep.want.verdicts, rep.want.digest)
	}
	logf("reference runs took %.1fs", time.Since(t1).Seconds())

	if r.traced {
		r.tr = newTracer()
	}
	for _, s := range []**samples{&r.lag, &r.feed, &r.query, &r.late, &r.stamps} {
		if *s, err = newSamples(); err != nil {
			return nil, err
		}
		defer (*s).release()
	}
	if r.sp.serve {
		if err := r.readCost(in.replicas[0]); err != nil {
			return nil, fmt.Errorf("read calibration: %w", err)
		}
		logf("one read costs %.1f µs CPU and %.0f heap objects (client and server, idle pipeline)",
			float64(r.readCPU)/1e3, r.readAllocs)
	}
	// Warm-up, not reported: the reference runs already touched every
	// input page, this runs the measured pipeline's code paths once.
	if _, err := r.pass(in.replicas[0], false, false); err != nil {
		return failed(err)
	}
	for _, s := range []*samples{r.lag, r.feed, r.query, r.late} {
		s.reset()
	}
	var cycles []*cycle
	start := time.Now()
	collected := false
	least := minCycles
	if r.traced {
		least++ // cycles alternate untraced and traced: keep two of each
	}
	for len(cycles) < least || time.Since(start) < r.budget {
		traced := r.traced && len(cycles)%2 == 1
		c, err := r.cycle(traced, traced && !collected)
		if err != nil {
			return failed(err)
		}
		collected = collected || traced
		logf("cycle %d%s: %.0f frames/s, %.0f frames/cpu-s, peak heap %.1f MiB, verdict lag p99 %.1f ms", len(cycles),
			map[bool]string{true: " (traced)"}[traced], c.framesPerSec(), c.framesPerCPUSec(), float64(c.heapPeak)/(1<<20), ms(quantile(c.lags, 0.99)))
		cycles = append(cycles, c)
	}
	r.probe[1] = hostProbe()
	logf("host probe: %.3f ms before, %.3f ms after", ms(float64(r.probe[0])), ms(float64(r.probe[1])))
	res := &result{Correct: true}
	for _, c := range cycles {
		res.Attempted += c.attempted
		res.Failed += c.fails
	}
	if r.traced {
		if res.Metrics, err = r.layerMetrics(cycles); err != nil {
			return nil, err
		}
		if err := r.tr.write(r.sp.name, r.seed); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = r.endToEnd(cycles, res)
	}
	return res, nil
}

// cycle replays every replica once; collect keeps the first replica's
// per-window candidates for the match ledger.
func (r *runner) cycle(traced, collect bool) (*cycle, error) {
	lag0, feed0 := r.lag.n, r.feed.n
	passes := make([]*pass, 0, len(r.in.replicas))
	for i, rep := range r.in.replicas {
		from := r.lag.n
		p, err := r.pass(rep, traced, collect && i == 0)
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		p.lags = r.lag.buf[from:r.lag.n]
		passes = append(passes, p)
	}
	c := summarise(passes)
	c.lags, c.feed = r.lag.buf[lag0:r.lag.n], r.feed.buf[feed0:r.feed.n]
	return c, nil
}

// failed reports a wrong output: the run fails and prints no numbers.
func failed(err error) (*result, error) {
	return &result{Correct: false}, err
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// hostProbe times a fixed CPU-bound loop (FNV-1a over 8 MiB of a
// cache-resident buffer, median of five) that no change to the
// repository can move: a shift in it between two runs is the machine's
// speed, not the program's.
func hostProbe() time.Duration {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	var times []float64
	h := uint64(fnvOffset)
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		for j := 0; j < 128; j++ {
			for _, b := range buf {
				h = (h ^ uint64(b)) * fnvPrime
			}
		}
		times = append(times, float64(time.Since(t0)))
	}
	probeSink = h
	return time.Duration(median(times))
}

var probeSink uint64 // keeps hostProbe's loop from being optimised away

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// traceBlock is how many records one traced span covers: a clock read
// per record (~60 ns) would distort a ~300 ns/record path.
const traceBlock = 256

// pass replays one replica's capture once through a freshly built
// pipeline and checks its event stream against the replica's reference
// run.
func (r *runner) pass(rep *replica, traced, collect bool) (*pass, error) {
	sp := r.sp
	runtime.GC() // earlier passes' garbage is not this pass's cost
	obs := newObserver(traced, collect)
	obs.lags = r.lag
	r.stamps.reset()
	obs.stamps = r.stamps
	ts := time.Now()
	p, err := build(sp, rep, obs, !sp.sharded, sp.serve)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := &pass{traced: traced, setup: time.Since(ts), load: p.load, compile: p.compile, index: p.index}
	// The live-heap samples read what the last collection marked. One
	// that ran inside set-up, with the decoded checkpoint still live
	// next to the compiled references, would otherwise stand for the
	// whole replay whenever the replay itself triggers none.
	runtime.GC()

	var feed *feedClient
	var rd *reader
	clock := noReads()
	if sp.serve {
		base := "http://" + p.srv.Addr()
		if feed, err = dialFeed(base, sp.name, obs, r.feed); err != nil {
			p.eng.Close()
			return nil, err
		}
		rd = newReader(base, sp.name, obs, r.query, r.late)
		clock = newReadClock()
		rd.start(clock)
	}
	src, done, err := source(rep)
	if err != nil {
		return nil, err
	}
	grid := windowGrid{w: sp.window.Microseconds()}
	var root int
	if traced {
		root = r.tr.open("pipeline.pass")
	}
	a0, c0 := heapAllocs(), cpuTime()
	t0 := time.Now()
	var n uint64
	if traced {
		n, err = r.replayTraced(p, obs, src, &grid, clock, root, res)
	} else {
		n, err = replay(p, obs, src, &grid, clock)
	}
	if rd != nil {
		close(clock.due) // the capture's clock stops: no further reads fall due
	}
	if err != nil {
		return nil, err
	}
	obs.closeWindow(grid.crossing)
	tc := time.Now()
	p.eng.Close()
	end := time.Now()
	res.allocs, res.cpu = heapAllocs()-a0, cpuTime()-c0
	res.records, res.elapsed, res.close = n, end.Sub(t0), end.Sub(tc)
	if traced {
		r.tr.add("engine.close", tc, end, root, 0)
		r.tr.close(root, end, int(n))
		r.tr.addIntervals("server.sink", obs.sinkSpans, obs.epoch, root)
	}

	skipped, srcErr := done()
	stats, health := p.eng.Stats(), p.eng.Health()
	res.skipped, res.dropped, res.panics = skipped, stats.DroppedFrames, health.Panics()
	res.heapPeak = obs.heapPeak
	res.liveMax, res.evicted = max(res.liveMax, stats.LiveSenders), stats.Evicted
	res.emitNs, res.trainerSteps, res.queueMax, res.windows = obs.emitNs, obs.trainerSteps, obs.queueMax, obs.windows
	if p.trainer != nil {
		res.trainer = p.trainer.Stats()
	}
	if p.cluster != nil {
		res.clusterDevices, res.clusterBinds, res.clusterRebound = p.cluster.Devices(), p.cluster.Bindings(), p.cluster.Rebound()
	}
	if sp.serve {
		fanout := p.site.Feed()
		res.published = obs.published()
		res.lost = feed.drain(res.published, func() uint64 { return fanout.Stats().Dropped })
		rd.wait()
		feed.close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := p.srv.Shutdown(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("server shutdown: %w", err)
		}
		res.feedDropped = fanout.Stats().Dropped
		res.queries, res.queryFailed = rd.attempted+clock.missed, rd.failed+clock.missed
		res.sinkNs = obs.sinkNs
	}

	if srcErr != nil {
		return nil, fmt.Errorf("capture source: %w", srcErr)
	}
	switch {
	case n != rep.want.records || stats.Frames != n:
		return nil, fmt.Errorf("record count: replayed %d, engine counted %d, reference %d", n, stats.Frames, rep.want.records)
	case obs.verdicts != rep.want.verdicts || obs.digest != rep.want.digest:
		return nil, fmt.Errorf("event digest: %d verdicts %016x, reference %d verdicts %016x",
			obs.verdicts, obs.digest, rep.want.verdicts, rep.want.digest)
	}
	return res, nil
}

// replay is the closed-loop producer: decode the next record, push it
// when the previous Push returned. Clock reads happen only at window
// boundaries (the verdict-lag stamps) and when a read falls due.
func replay(p *pipeline, obs *observer, src capture.RecordSource, grid *windowGrid, clock *readClock) (uint64, error) {
	var n uint64
	var rec capture.Record // one record reused: Push does not retain it
	var err error
	for {
		rec, err = src.Next()
		if err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		if grid.advance(rec.T) {
			obs.closeWindow(grid.crossing - 1)
		}
		if rec.T >= clock.next {
			clock.fire(rec.T)
		}
		p.eng.Push(&rec)
		n++
	}
}

// replayTraced is replay with block-granular spans: traceBlock records
// are decoded under one capture span, then pushed under one engine span.
func (r *runner) replayTraced(p *pipeline, obs *observer, src capture.RecordSource, grid *windowGrid, clock *readClock, root int, res *pass) (uint64, error) {
	buf := make([]capture.Record, traceBlock)
	var n uint64
	for eof := false; !eof; {
		t0 := time.Now()
		k := 0
		for ; k < len(buf); k++ {
			var err error
			if buf[k], err = src.Next(); err != nil {
				if err != io.EOF {
					return n, err
				}
				eof = true
				break
			}
		}
		t1 := time.Now()
		for i := 0; i < k; i++ {
			if grid.advance(buf[i].T) {
				obs.closeWindow(grid.crossing - 1)
			}
			if buf[i].T >= clock.next {
				clock.fire(buf[i].T)
			}
			p.eng.Push(&buf[i])
		}
		t2 := time.Now()
		r.tr.add("capture.next", t0, t1, root, k)
		r.tr.add("engine.push", t1, t2, root, k)
		res.pushNs += int64(t2.Sub(t1))
		n += uint64(k)
		if live := p.eng.Stats().LiveSenders; live > res.liveMax {
			res.liveMax = live
		}
	}
	return n, nil
}

// endToEnd computes the gated metrics, each a median over cycles, and
// prints every end-to-end metric that applies to the workload. The
// wall-clock rate and the verdict lags are printed but not gated: the
// rate follows the time the shared host steals from the VM, and the
// lags are mostly shard-queue drain, whose share of two contended cores
// moved them by more than a regression bound between runs of the same
// code (see README.md).
func (r *runner) endToEnd(cycles []*cycle, res *result) map[string]metric {
	var fps, cfps, apf, heap, setup, lag50, lag99, feed99 []float64
	var published uint64
	for _, c := range cycles {
		fps = append(fps, c.framesPerSec())
		cfps = append(cfps, c.framesPerCPUSec())
		apf = append(apf, float64(c.allocs)/float64(c.records))
		heap = append(heap, float64(c.heapPeak)/(1<<20))
		lag50 = append(lag50, ms(quantile(c.lags, 0.50)))
		lag99 = append(lag99, ms(quantile(c.lags, 0.99)))
		feed99 = append(feed99, ms(quantile(c.feed, 0.99)))
		published += c.published
		for _, p := range c.passes {
			setup = append(setup, p.setup.Seconds())
		}
	}
	lag50All, lag99All, nLags := r.verdictLags(cycles)
	qlat := r.query.values()
	errRate := float64(res.Failed) / float64(res.Attempted)
	m := map[string]metric{
		"frames_per_cpu_s": {median(cfps), "1/cpu-s"},
		"allocs_per_frame": {median(apf), "count"},
		"peak_heap_mib":    {r.peakHeap(cycles), "MiB"},
		"setup_s":          {median(setup), "s"},
		"success_rate":     {1 - errRate, "ratio"},
	}

	var records, verdicts uint64
	for _, rep := range r.in.replicas {
		records += rep.want.records
		verdicts += rep.want.verdicts
	}
	fmt.Printf("%s seed %d: %d cycles over %d replicas, %d records and %d verdicts per cycle, shards %d\n",
		r.sp.name, r.seed, len(cycles), len(r.in.replicas), records, verdicts, map[bool]int{true: shards, false: 1}[r.sp.sharded])
	row := func(name string, v float64, unit, note string) {
		fmt.Printf("  %-22s %14.6g %-7s %s\n", name, v, unit, note)
	}
	row("frames_per_cpu_s", m["frames_per_cpu_s"].Value, "1/cpu-s", spread("cycles", cfps))
	row("frames_per_s", median(fps), "1/s", "per wall second, not gated; "+spread("cycles", fps))
	row("allocs_per_frame", m["allocs_per_frame"].Value, "count", spread("cycles", apf))
	row("verdict_lag_p50_ms", lag50All, "ms", fmt.Sprintf("n=%d verdicts; per cycle %s", nLags, spread("cycles", lag50)))
	row("verdict_lag_p99_ms", lag99All, "ms", fmt.Sprintf("median of per-replica p99s, n=%d verdicts, %d+ beyond each; per cycle %s",
		nLags, nLags/len(r.in.replicas)/100, spread("cycles", lag99)))
	row("peak_heap_mib", m["peak_heap_mib"].Value, "MiB", "mean over replicas of each one's median pass peak; per cycle "+spread("cycles", heap))
	row("setup_s", m["setup_s"].Value, "s", spread("set-ups", setup))
	row("host_probe_ms", ms(float64(r.probe[0])), "ms", fmt.Sprintf("fixed CPU loop before synthesis; %.4g ms after the cycles", ms(float64(r.probe[1]))))
	row("error_rate", errRate, "ratio", fmt.Sprintf("%d failed of %d attempted; success_rate %.6g", res.Failed, res.Attempted, 1-errRate))
	if r.sp.serve {
		row("query_latency_p50_ms", ms(quantile(qlat, 0.50)), "ms", fmt.Sprintf("n=%d reads, one per %v of capture, open loop", len(qlat), readEvery))
		row("query_latency_p99_ms", ms(quantile(qlat, 0.99)), "ms", fmt.Sprintf("n=%d reads; generator late p99 %.3g ms", len(qlat), ms(quantile(r.late.values(), 0.99))))
		cpuPct, allocPct := r.readerShare(cycles)
		row("reader_share", cpuPct, "%", fmt.Sprintf("of the replay's process CPU (%.1f µs per read, client and server); %.2f%% of its heap objects (%.0f per read)",
			float64(r.readCPU)/1e3, allocPct, r.readAllocs))
		row("feed_lag_p99_ms", ms(quantile(r.feed.values(), 0.99)), "ms", fmt.Sprintf("n=%d of %d events; per cycle %s", r.feed.n, published, spread("cycles", feed99)))
	}
	return m
}

// readerShare is the open-loop reader's share of the untraced cycles'
// process CPU and heap objects, in percent, from the idle-pipeline cost
// of one read (readCost) times each cycle's reads; median over cycles.
func (r *runner) readerShare(cycles []*cycle) (cpuPct, allocPct float64) {
	var cpu, allocs []float64
	for _, c := range cycles {
		if !c.traced && c.queries > 0 {
			cpu = append(cpu, 100*float64(c.queries)*float64(r.readCPU)/float64(c.cpu))
			allocs = append(allocs, 100*float64(c.queries)*r.readAllocs/float64(c.allocs))
		}
	}
	return median(cpu), median(allocs)
}

// peakHeap is the mean over replicas of the median over cycles of each
// replica's pass peak, in MiB. A sample reads what the last collection
// marked, so a pass's peak depends on where in the window cycle its
// collections fell; and the largest replica would follow the draw of
// the heaviest population rather than the pipeline. The mean keeps
// every population's weight, where a median of eight would rest on the
// middle two.
func (r *runner) peakHeap(cycles []*cycle) float64 {
	var peaks []float64
	for i := range r.in.replicas {
		var v []float64
		for _, c := range cycles {
			v = append(v, float64(c.passes[i].heapPeak)/(1<<20))
		}
		peaks = append(peaks, median(v))
	}
	return mean(peaks)
}

// verdictLags returns the verdict-lag p50 over every verdict of the
// untraced cycles and the median over replicas of each replica's p99,
// in ms, with the sample count. The tail is taken per replica because
// a p99 pooled over replicas is set by whichever replica has the
// heaviest windows, so it would follow the draw of one population
// rather than the pipeline.
func (r *runner) verdictLags(cycles []*cycle) (p50, p99 float64, n int) {
	var all, tails []float64
	for i := range r.in.replicas {
		var v []float64
		for _, c := range cycles {
			if !c.traced {
				v = append(v, c.passes[i].lags...)
			}
		}
		all = append(all, v...)
		tails = append(tails, ms(quantile(v, 0.99)))
	}
	return ms(quantile(all, 0.50)), median(tails), len(all)
}

func ms(ns float64) float64 { return ns / 1e6 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// spread renders the quartile spread of per-pass values relative to
// their median.
func spread(what string, v []float64) string {
	med := median(v)
	if med == 0 {
		return fmt.Sprintf("(%d %s)", len(v), what)
	}
	return fmt.Sprintf("(%d %s, IQR %.1f%% of median)", len(v), what, 100*(quantile(v, 0.75)-quantile(v, 0.25))/med)
}

// samples is an append-only series of per-event measurements held in
// anonymous memory outside the Go heap: pooling them over a whole run
// must not grow the live heap the benchmark measures. Pages are only
// backed once written.
type samples struct {
	buf []float64
	n   int
}

// sampleCap bounds one series; later samples are not recorded.
const sampleCap = 1 << 23

func newSamples() (*samples, error) {
	b, err := offHeap(sampleCap * 8)
	if err != nil {
		return nil, err
	}
	return &samples{buf: unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), sampleCap)}, nil
}

func (s *samples) add(v float64) {
	if s != nil && s.n < len(s.buf) {
		s.buf[s.n] = v
		s.n++
	}
}

func (s *samples) values() []float64 { return s.buf[:s.n] }

func (s *samples) reset() { s.n = 0 }

func (s *samples) release() {
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s.buf[0])), len(s.buf)*8)
	_ = syscall.Munmap(b) // process exit reclaims it anyway
	s.buf, s.n = nil, 0
}
