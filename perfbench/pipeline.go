package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/cmdutil"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
	"dot11fp/internal/server"
)

// ingest is what the replay needs from either engine; both *engine.Engine
// and *engine.Sharded implement it, and it includes the server's view.
type ingest interface {
	server.EngineHandle
	Push(*capture.Record)
	Close()
}

// pipeline is one ready-to-run instance of a workload's ingest stack.
type pipeline struct {
	eng     ingest
	trainer *engine.Trainer
	cluster *core.Clusterer
	site    *server.Site
	srv     *server.Server

	load, compile time.Duration // checkpoint decode and Compile, inside set-up
	index         core.IndexStats
}

// build is the benchmark's set-up: from checkpoint bytes to a ready
// pipeline — reference load, Compile (index build), engine and, when
// serving, server construction. serial swaps the sharded engine for the
// serial one (the reference run); serve=false leaves the server out.
func build(sp *spec, rep *replica, obs *observer, serial, serve bool) (*pipeline, error) {
	p := &pipeline{}
	var db *core.CompiledDB
	var edb *core.CompiledEnsemble
	if rep.ckpt != nil {
		t0 := time.Now()
		if len(sp.cfgs) == 1 {
			d, err := core.LoadBinary(bytes.NewReader(rep.ckpt))
			if err != nil {
				return nil, fmt.Errorf("loading checkpoint: %w", err)
			}
			p.load = time.Since(t0)
			db = d.Compile()
			p.index = db.IndexStats()
		} else {
			e, err := core.LoadBinaryEnsemble(bytes.NewReader(rep.ckpt))
			if err != nil {
				return nil, fmt.Errorf("loading checkpoint: %w", err)
			}
			p.load = time.Since(t0)
			edb = e.Compile()
			p.index = edb.IndexStats()
		}
		p.compile = time.Since(t0) - p.load
	}
	if sp.trainer != nil {
		var err error
		if len(sp.cfgs) == 1 {
			p.trainer = engine.NewTrainer(sp.cfgs[0], core.MeasureCosine, *sp.trainer)
		} else if p.trainer, err = engine.NewEnsembleTrainer(sp.cfgs, core.MeasureCosine, *sp.trainer); err != nil {
			return nil, err
		}
	}
	if sp.cluster {
		p.cluster = core.NewClusterer(core.DefaultClusterBindings)
	}
	if serve {
		// A window closes with a burst of several hundred events (verdicts,
		// enrollment progress, swaps); the subscriber's buffer holds a
		// whole burst so a client that keeps up on average loses none.
		p.site = server.NewSite(sp.name, server.SiteOptions{Window: sp.window, FeedBuffer: feedBuffer})
		obs.site = p.site.Sink(nil)
	}

	var err error
	if serial {
		opts := engine.Options{Window: sp.window, Workers: 1, Sink: obs, Cluster: p.cluster, Trainer: p.trainer}
		var e *engine.Engine
		if len(sp.cfgs) == 1 {
			e, err = engine.New(sp.cfgs[0], db, opts)
		} else {
			e, err = engine.NewEnsemble(sp.cfgs, edb, opts)
		}
		p.eng = e
	} else {
		opts := engine.ShardedOptions{Window: sp.window, Shards: shards, Sink: obs, Cluster: p.cluster, Trainer: p.trainer}
		var e *engine.Sharded
		if len(sp.cfgs) == 1 {
			e, err = engine.NewSharded(sp.cfgs[0], db, opts)
		} else {
			e, err = engine.NewShardedEnsemble(sp.cfgs, edb, opts)
		}
		p.eng = e
	}
	if err != nil {
		return nil, err
	}
	obs.eng = p.eng

	if serve {
		p.site.Attach(p.eng, p.trainer, nil, cmdutil.References{})
		reg := server.NewRegistry()
		if err := reg.Add(p.site); err != nil {
			p.eng.Close()
			return nil, err
		}
		if p.srv, err = server.Start("127.0.0.1:0", reg, server.Options{}); err != nil {
			p.eng.Close()
			return nil, err
		}
	}
	return p, nil
}

// source opens a replica's capture for one pass: a StreamReader over a
// single monitor, or a time-ordered MultiStream over several.
func source(rep *replica) (capture.RecordSource, func() (skipped uint64, err error), error) {
	var srs []*capture.StreamReader
	for _, b := range rep.pcaps {
		sr, err := capture.NewStreamReader(bytes.NewReader(b))
		if err != nil {
			return nil, nil, err
		}
		srs = append(srs, sr)
	}
	var src capture.RecordSource = srs[0]
	var ms *capture.MultiStream
	if len(srs) > 1 {
		rs := make([]capture.RecordSource, len(srs))
		for i, sr := range srs {
			rs[i] = sr
		}
		ms = capture.NewMultiStream(capture.MergeByTime, false, rs...)
		src = ms
	}
	done := func() (uint64, error) {
		var n uint64
		for _, sr := range srs {
			n += sr.Skipped()
		}
		if ms != nil {
			ms.Close()
			return n, ms.Err()
		}
		return n, nil
	}
	return src, done, nil
}

// windowGrid mirrors core.WindowClock's grid (anchored at the first
// record, bucket = (T-anchor)/w truncated) so the producer knows which
// Push closes a window without asking the engine.
type windowGrid struct {
	w        int64
	started  bool
	anchor   int64
	bucket   int64
	lo, hi   int64 // T range of the current bucket
	crossing int   // windows closed so far
}

// advance reports whether a record at t closes the open window.
func (g *windowGrid) advance(t int64) bool {
	if g.started && t >= g.lo && t < g.hi {
		return false
	}
	if !g.started {
		g.started, g.anchor = true, t
		g.setBucket(0)
		return false
	}
	b := (t - g.anchor) / g.w
	if b == g.bucket {
		return false
	}
	g.setBucket(b)
	g.crossing++
	return true
}

func (g *windowGrid) setBucket(b int64) {
	g.bucket = b
	switch {
	case b > 0:
		g.lo = g.anchor + b*g.w
		g.hi = g.lo + g.w
	case b == 0:
		g.lo, g.hi = g.anchor-g.w+1, g.anchor+g.w
	default:
		g.hi = g.anchor + b*g.w + 1
		g.lo = g.hi - g.w
	}
}

// feedBuffer is the SSE subscriber's frame buffer.
const feedBuffer = 2048

// maxWindows bounds the per-window stamp table; a replica closes 16
// one-minute windows.
const maxWindows = 64

// observer is the engine's sink: it digests the verdict stream, takes
// the verdict-lag and live-heap samples, forwards every event to the
// server's site tap when serving, and — in traced passes — records the
// per-window figures of the per-layer ledger. It runs on the engine's
// delivery goroutine (the producer for the serial engine, the merger for
// the sharded one); its results are read after Close.
type observer struct {
	epoch time.Time
	cross [maxWindows]atomic.Int64 // ns since epoch of the Push (or Close) that closed window i

	digest   uint64
	verdicts uint64
	lags     *samples // verdict lags, ns; nil for the reference run
	heapPeak uint64
	heap     []metrics.Sample

	eng         ingest
	site        engine.Sink // site tap; nil when not serving
	lastVerdict dot11.Addr
	lastAddr    atomic.Pointer[string] // a sender the server has a verdict for

	feedMu    sync.Mutex
	stamps    *samples // ns since epoch the tap received the event with SSE id i+1
	sinkNs    int64
	sinkSpans [][2]int64 // traced: each site-tap call, ns since epoch

	traced       bool
	collect      bool // keep per-window candidates for the match ledger
	winFirst     int64
	emitNs       []float64
	closedAt     int64
	trainerSteps []float64
	queueMax     int
	windows      []*windowCands
}

// windowCands is one window's candidates plus the database that matched
// them, rebuilt from the verdict events for the match ledger.
type windowCands struct {
	db    *core.CompiledDB
	edb   *core.CompiledEnsemble
	cands []core.Candidate
	multi []core.MultiCandidate
}

func newObserver(traced, collect bool) *observer {
	o := &observer{
		digest:  fnvOffset,
		heap:    []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		traced:  traced,
		collect: collect,
	}
	o.epoch = time.Now()
	return o
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (o *observer) mix(v uint64) {
	for i := 0; i < 8; i++ {
		o.digest = (o.digest ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

func addrBits(a dot11.Addr) uint64 {
	var v uint64
	for _, b := range a {
		v = v<<8 | uint64(b)
	}
	return v
}

func (o *observer) now() int64 { return int64(time.Since(o.epoch)) }

// closeWindow stamps the moment the producer hands the engine the
// record (or the Close) that ends window i.
func (o *observer) closeWindow(i int) {
	if i < maxWindows {
		o.cross[i].Store(o.now())
	}
}

func (o *observer) HandleEvent(ev engine.Event) {
	now := o.now()
	switch ev := ev.(type) {
	case engine.CandidateMatched:
		o.verdict(now, ev.Window, ev.Addr, ev.Best, true)
		if o.collect {
			o.candidate(ev.Window, ev.Addr, ev.Sig, ev.Sigs, ev.Scores != nil)
		}
	case engine.UnknownDevice:
		o.verdict(now, ev.Window, ev.Addr, ev.Best, false)
		if o.collect {
			o.candidate(ev.Window, ev.Addr, ev.Sig, ev.Sigs, ev.Scores != nil)
		}
	case engine.WindowClosed:
		if o.site != nil && o.verdicts > 0 {
			s := o.lastVerdict.String()
			o.lastAddr.Store(&s)
		}
		metrics.Read(o.heap)
		if v := o.heap[0].Value.Uint64(); v > o.heapPeak {
			o.heapPeak = v
		}
		if o.traced {
			if o.winFirst > 0 {
				o.emitNs = append(o.emitNs, float64(now-o.winFirst))
			}
			o.winFirst, o.closedAt = 0, now
			for _, d := range o.eng.Health().QueueDepths {
				o.queueMax = max(o.queueMax, d)
			}
		}
	case engine.DBSwapped:
		if o.traced && o.closedAt > 0 {
			o.trainerSteps = append(o.trainerSteps, float64(now-o.closedAt))
		}
	}
	if o.site != nil {
		o.feedMu.Lock()
		o.stamps.add(float64(now))
		o.feedMu.Unlock()
		t0 := o.now()
		o.site.HandleEvent(ev)
		t1 := o.now()
		o.sinkNs += t1 - t0
		if o.traced {
			o.sinkSpans = append(o.sinkSpans, [2]int64{t0, t1})
		}
	}
}

func (o *observer) verdict(now int64, w int, addr dot11.Addr, best core.Score, matched bool) {
	o.verdicts++
	o.mix(uint64(w))
	o.mix(addrBits(addr))
	o.mix(addrBits(best.Addr))
	o.mix(math.Float64bits(best.Sim))
	if matched {
		o.mix(1)
	} else {
		o.mix(0)
	}
	if w < maxWindows {
		if c := o.cross[w].Load(); c > 0 {
			o.lags.add(float64(now - c))
		}
	}
	if o.traced && o.winFirst == 0 {
		o.winFirst = now
	}
	o.lastVerdict = addr
}

func (o *observer) candidate(w int, addr dot11.Addr, sig *core.Signature, sigs []*core.Signature, scored bool) {
	for len(o.windows) <= w {
		o.windows = append(o.windows, nil)
	}
	wc := o.windows[w]
	if wc == nil {
		wc = &windowCands{db: o.eng.DB(), edb: o.eng.EnsembleDB()}
		o.windows[w] = wc
	}
	if !scored {
		return // no reference set installed yet: nothing was matched
	}
	if sigs != nil {
		wc.multi = append(wc.multi, core.MultiCandidate{Addr: addr, Window: w, Sigs: sigs})
	} else {
		wc.cands = append(wc.cands, core.Candidate{Addr: addr, Window: w, Sig: sig})
	}
}

// feedStampOf returns when the tap received the event with SSE id.
func (o *observer) feedStampOf(id uint64) (int64, bool) {
	o.feedMu.Lock()
	defer o.feedMu.Unlock()
	if id == 0 || id > uint64(o.stamps.n) {
		return 0, false
	}
	return int64(o.stamps.buf[id-1]), true
}

func (o *observer) published() uint64 {
	o.feedMu.Lock()
	defer o.feedMu.Unlock()
	return uint64(o.stamps.n)
}

// expected is the reference run's verdict stream: every timed pass must
// reproduce it exactly.
type expected struct {
	records  uint64
	verdicts uint64
	digest   uint64
}

// reference computes a replica's expected event digest and record
// count once, outside timing, from a serial Engine over the decoded
// records.
func reference(sp *spec, rep *replica) (expected, error) {
	obs := newObserver(false, false)
	p, err := build(sp, rep, obs, true, false)
	if err != nil {
		return expected{}, err
	}
	src, done, err := source(rep)
	if err != nil {
		return expected{}, err
	}
	var n uint64
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return expected{}, err
		}
		p.eng.Push(&rec)
		n++
	}
	p.eng.Close()
	if _, err := done(); err != nil {
		return expected{}, err
	}
	if obs.verdicts == 0 {
		return expected{}, fmt.Errorf("reference run produced no verdicts over %d records", n)
	}
	return expected{records: n, verdicts: obs.verdicts, digest: obs.digest}, nil
}
