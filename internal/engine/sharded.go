package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
)

// Backpressure selects what the sharded engine does when a shard queue
// is full.
type Backpressure uint8

const (
	// Block makes Push wait for queue space — lossless, end-to-end flow
	// control: a slow sink ultimately slows the producer, exactly like
	// the inline Engine's synchronous delivery.
	Block Backpressure = iota
	// Drop makes Push discard observations instead of waiting, counting
	// them in Stats.DroppedFrames — bounded ingest latency under load
	// bursts for live feeds that must not stall the radio. Window
	// clocking is never dropped (dropping a close control would corrupt
	// the shard merge), so windows still close on the right boundaries;
	// dropped observations are simply missing from that window's
	// signatures (output is then no longer equivalent to a lossless
	// run). The lossless control path means a sink that stops
	// returning altogether still stalls Push at the next window
	// boundary — Drop bounds loss to data, it does not make a
	// permanently wedged sink survivable; a sink with its own overflow
	// policy (e.g. draining a ChannelSink) is the tool for that.
	Drop
)

// ShardedOptions parameterises a Sharded engine.
type ShardedOptions struct {
	// Window, Threshold and Sink mean exactly what they do in Options.
	Window    time.Duration
	Threshold float64
	Sink      Sink
	// Shards is the number of independent partitions records are hashed
	// into by sender address; 0 selects GOMAXPROCS. Each shard owns its
	// accumulator, match scratch and queue, so ingestion and matching
	// scale across cores. Shard count changes wall-clock behaviour only:
	// the merged event stream is identical for every value.
	Shards int
	// QueueLen is the per-shard queue depth in observations (rounded up
	// to whole batches); 0 selects 8192. Deeper queues absorb larger
	// bursts before the Backpressure policy engages.
	QueueLen int
	// Backpressure picks the full-queue policy: Block (default,
	// lossless) or Drop (bounded latency, counted loss).
	Backpressure Backpressure
	// TopK trims verdict events to the k best references, exactly like
	// Options.TopK: verdicts and Best stay bit-identical to the full
	// vector at every shard count, per-window match cost becomes
	// sublinear with the index enabled, and ParamScores are omitted. 0
	// keeps the full vector.
	TopK int
	// Limits bounds each shard's sender state (see core.SenderLimits).
	// The cap applies per shard, so total signature memory is
	// O(Shards × MaxSenders); eviction is deterministic per shard but —
	// unlike everything else about shard count — which senders are
	// evicted depends on the partitioning.
	Limits core.SenderLimits
	// Cluster merges randomized-MAC senders into logical devices by
	// probe-request content, exactly like Options.Cluster. The router
	// resolves every sender before shard hashing, so all of a device's
	// rotated addresses land on — and accumulate in — one shard under
	// the canonical device address. Driven only from the Push
	// goroutine; nil disables.
	Cluster *core.Clusterer
	// Trainer enables online enrollment, exactly like Options.Trainer
	// (the engine must then be created with a nil db). Enrollment needs
	// strict window ordering — window k's promotions must be installed
	// before window k+1 is matched — and per-shard matching runs ahead
	// of the merger, so with a Trainer attached the shards skip
	// matching and the merger matches each merged window against the
	// freshly swapped database instead (fanning out across workers).
	// The event stream stays identical to the inline engine's with the
	// same Trainer settings, at every shard count.
	Trainer *Trainer
	// HealthSink receives supervision events (ComponentPanicked,
	// ShardStalled, ShardResumed). Unlike Sink it is called from
	// internal goroutines — shards, the merger, the watchdog — possibly
	// concurrently, and never interleaved with the main event stream;
	// it must not call back into the engine. nil discards the events
	// (Health still counts everything).
	HealthSink Sink
	// Watchdog enables the stall detector at this sampling interval: a
	// shard with queued batches that processes nothing across an
	// interval is reported ShardStalled (and ShardResumed when it moves
	// again). 0 disables.
	Watchdog time.Duration
	// Hooks are fault-injection/test points (see Hooks); nil — the
	// production value — costs one branch per batch.
	Hooks Hooks
}

// shardBatch is the router→shard transfer granularity: big enough to
// amortise queue synchronisation to well under a nanosecond per frame,
// small enough that a window close never waits long for stragglers.
const shardBatch = 256

// routedObs is one attributed observation, routed to the sender's
// shard. The router has already applied the attribution rules and
// computed every member's parameter value against the global
// inter-arrival context, so sharding cannot change any observation's
// value; the values travel in the message's flat vals array.
type routedObs struct {
	addr  dot11.Addr
	class dot11.Class
	valid uint8 // member validity mask (core.MemberValues)
	t     int64
}

// shardMsg is the SPSC queue element: a batch of observations, plus an
// optional close-window control processed after them. The close carries
// the router's core.WindowMeta — the one global window clock — so
// window indices, bounds and frame counts stay consistent across
// shards. Messages are recycled through a per-shard free list, so the
// steady state moves no memory to the garbage collector. Observation i's
// member values are vals[i*m:(i+1)*m] for an engine of m members,
// allocated once per message at construction.
type shardMsg struct {
	n        int
	closeWin bool
	meta     core.WindowMeta
	entries  [shardBatch]routedObs
	vals     []float64
}

// shard is one partition: an SPSC queue pair (ch carries filled
// messages to the shard goroutine, free returns drained ones) and the
// state owned exclusively by that goroutine.
type shard struct {
	ch    chan *shardMsg
	free  chan *shardMsg
	cur   *shardMsg // batch being filled by the router
	table *core.SenderTable
	// processed counts drained messages — the watchdog's progress
	// signal. Incremented once per batch, never per frame.
	processed atomic.Uint64
}

// shardSegment is one shard's slice of a closed window, sent to the
// merger: candidates and dropped senders (each sorted by address) plus
// the shard-local match rows (fused and per-member).
type shardSegment struct {
	meta     core.WindowMeta
	res      core.WindowResult
	fused    [][]core.Score
	perParam [][][]core.Score
}

// Sharded is the streaming engine. A router on the pushing goroutine
// applies the window clock, resolves each sender and computes its
// member values against the global inter-arrival context; the
// observation then lands in its sender's shard, and each closed window
// is emitted as one deterministic event stream — verdicts ascending by
// address, then drops, then the WindowClosed summary.
//
// The engine runs in one of two modes, chosen by the constructor:
//
//   - NewSharded and NewShardedEnsemble hash-partition records by
//     sender address across N shards, each owning its sender table and
//     match scratch, fed through per-shard SPSC batch queues; a merger
//     goroutine joins the per-shard results back into one window. Events
//     are delivered on the merger goroutine — Flush and Close block
//     until every event for the flushed windows has been handed to the
//     sink, and the sink must not call back into Push.
//   - New and NewEnsemble (the Engine name) run one shard inline: Push
//     observes straight into the one sender table, and a window close
//     matches and emits the window synchronously on the pushing
//     goroutine. No queue, goroutine or drop policy is involved.
//
// In both modes Push, PushTrace, Flush and Close are called from a
// single goroutine; SetEnsembleDB, DB, EnsembleDB, Stats and Health
// from any goroutine. The event stream is identical in both modes and
// at every shard count over the same records — same events, same order
// — as long as no observations are dropped (Block policy, no
// SenderLimits).
type Sharded struct {
	cfgs []core.Config
	opts ShardedOptions
	edb  atomic.Pointer[core.CompiledEnsemble]

	shards []*shard
	segCh  chan shardSegment

	// deferMatch moves window matching from the shards to window
	// emission (set in inline mode, and when a Trainer is attached —
	// see ShardedOptions.Trainer). workers is that emit-time matching
	// fan-out: Options.Workers inline, 0 (GOMAXPROCS) for the merger.
	deferMatch bool
	workers    int

	// inline is the one shard's sender table in the goroutine-free mode
	// New and NewEnsemble build: Push observes into it directly and
	// window closes emit on the pushing goroutine. nil when the engine
	// runs shard goroutines behind queues.
	inline *core.SenderTable

	// Router state, owned by the pushing goroutine. The clock is the
	// same implementation WindowAccumulator runs on, so engine and
	// batch windowing cannot drift apart. vals is the reusable
	// per-record member value buffer.
	closed bool
	clock  core.WindowClock
	closes uint64 // window closes broadcast so far
	vals   []float64

	startNs       atomic.Int64
	frames        atomic.Uint64
	droppedFrames atomic.Uint64

	// Window-scoped counters: one consistent snapshot group (see
	// Stats), updated by the merger under mu. emitted drives the
	// Flush/Close rendezvous via cond.
	mu      sync.Mutex
	cond    *sync.Cond
	emitted uint64
	windows uint64
	matched uint64
	unknown uint64
	dropped uint64
	evicted uint64

	shardWG  sync.WaitGroup
	mergerWG sync.WaitGroup

	health    healthState
	watchStop chan struct{}
	watchWG   sync.WaitGroup
}

// NewSharded creates a single-parameter sharded engine: NewShardedEnsemble
// over the one configuration cfg, matching against db wrapped as an
// ensemble of one (nil runs extraction-only until SetEnsembleDB
// installs references).
func NewSharded(cfg core.Config, db *core.CompiledDB, opts ShardedOptions) (*Sharded, error) {
	return NewShardedEnsemble([]core.Config{cfg}, core.EnsembleOf(db), opts)
}

// NewShardedEnsemble creates a sharded engine: the router computes
// every member's parameter value against the global inter-arrival
// context (so sharding cannot change any value), shards accumulate one
// signature per member per sender, and each closed window's candidates
// are fuse-matched against edb (nil runs extraction-only until
// SetEnsembleDB installs one). The merged event stream is identical to
// the inline engine's (NewEnsemble) at every shard count.
func NewShardedEnsemble(cfgs []core.Config, edb *core.CompiledEnsemble, opts ShardedOptions) (*Sharded, error) {
	return newSharded(cfgs, edb, opts, false, 0)
}

// newSharded builds the engine in either mode: inline runs one shard on
// the pushing goroutine (opts.Shards must be 1) and matches each window
// at emission with the given worker fan-out; otherwise shard and merger
// goroutines are started behind per-shard queues.
func newSharded(cfgs []core.Config, edb *core.CompiledEnsemble, opts ShardedOptions, inline bool, workers int) (*Sharded, error) {
	if opts.Window == 0 {
		opts.Window = core.DefaultWindow
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 8192
	}
	s := &Sharded{
		opts:       opts,
		clock:      core.NewWindowClock(opts.Window),
		deferMatch: inline || opts.Trainer != nil,
		workers:    workers,
	}
	s.cond = sync.NewCond(&s.mu)

	batches := (opts.QueueLen + shardBatch - 1) / shardBatch
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		table, err := core.NewSenderTable(cfgs, opts.Limits)
		if err != nil {
			return nil, err
		}
		sh := &shard{table: table}
		if !inline {
			sh.ch = make(chan *shardMsg, batches)
			sh.free = make(chan *shardMsg, batches+2)
			// One message per queue slot, plus one for the router to fill
			// and one for the shard goroutine to drain.
			for j := 0; j < batches+2; j++ {
				sh.free <- &shardMsg{vals: make([]float64, shardBatch*len(cfgs))}
			}
		}
		s.shards[i] = sh
	}
	if inline {
		s.inline = s.shards[0].table
	}
	s.cfgs = s.shards[0].table.Configs() // defaults materialised
	s.vals = make([]float64, len(s.cfgs))
	if opts.Trainer != nil {
		if edb != nil {
			return nil, fmt.Errorf("engine: both db and a Trainer set — the trainer owns the reference set (seed it with NewTrainerFrom or NewEnsembleTrainerFrom)")
		}
		var err error
		if edb, err = opts.Trainer.bind(s, s.cfgs); err != nil {
			return nil, err
		}
	}
	if err := s.SetEnsembleDB(edb); err != nil {
		return nil, err
	}
	if !inline {
		s.start()
	}
	return s, nil
}

// start launches the shard and merger goroutines once the reference
// set is installed.
func (s *Sharded) start() {
	s.segCh = make(chan shardSegment, len(s.shards)*2)
	for i, sh := range s.shards {
		s.shardWG.Add(1)
		go s.runShard(i, sh)
	}
	go func() {
		s.shardWG.Wait()
		close(s.segCh)
	}()
	s.mergerWG.Add(1)
	go s.runMerger()
	if s.opts.Watchdog > 0 {
		s.watchStop = make(chan struct{})
		s.watchWG.Add(1)
		go s.runWatchdog(s.opts.Watchdog)
	}
}

// Config returns the first member's extraction configuration with
// defaults materialised.
func (s *Sharded) Config() core.Config { return s.cfgs[0] }

// Configs returns every member configuration with defaults
// materialised, in member order.
func (s *Sharded) Configs() []core.Config {
	out := make([]core.Config, len(s.cfgs))
	copy(out, s.cfgs)
	return out
}

// SetEnsembleDB atomically swaps the compiled ensemble the next closed
// window is matched against — live retraining without dropping the
// stream (wrap a single database with core.EnsembleOf). A nil edb
// switches the engine to extraction-only; a mismatched one leaves the
// previous ensemble installed. Each shard picks the new references up
// at its next window close; a swap that races a closing window may
// match that window's shards against different references, so swap
// between windows when the distinction matters.
func (s *Sharded) SetEnsembleDB(edb *core.CompiledEnsemble) error {
	if err := checkShape(s.cfgs, edb); err != nil {
		return err
	}
	s.edb.Store(edb)
	return nil
}

// EnsembleDB returns the currently installed compiled ensemble, or nil.
func (s *Sharded) EnsembleDB() *core.CompiledEnsemble { return s.edb.Load() }

// DB returns the sole member of the installed ensemble when it has one
// member, else nil.
func (s *Sharded) DB() *core.CompiledDB { return soleMember(s.edb.Load()) }

// shardOf hashes a sender address to its shard: a fixed multiplicative
// hash over the 48 address bits, so partitioning is deterministic
// across runs and processes.
func (s *Sharded) shardOf(addr dot11.Addr) int {
	x := uint64(addr[0])<<40 | uint64(addr[1])<<32 | uint64(addr[2])<<24 |
		uint64(addr[3])<<16 | uint64(addr[4])<<8 | uint64(addr[5])
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	return int(x % uint64(len(s.shards)))
}

// ShardOf reports which shard owns a sender address — the partitioning
// is deterministic across runs and processes, so an operator can
// attribute a ShardStalled or shard ComponentPanicked event to the
// senders it affects (and chaos tests can place faults precisely).
func (s *Sharded) ShardOf(addr dot11.Addr) int { return s.shardOf(addr) }

// Push ingests one record; the record is not retained. The router
// applies the global window clock and the batch accumulator's
// attribution rule — resolve the sender through the clusterer first,
// then compute every member's value against the stream-wide
// inter-arrival context — and forwards the observation to its sender's
// shard (inline: observes it into the one sender table). Crossing a
// window boundary closes the previous window before the record is
// accounted to the new one. Push panics after Close.
//
//fp:hotpath test=TestShardedPushZeroAllocs
func (s *Sharded) Push(rec *capture.Record) {
	if s.closed {
		panic("engine: Push after Close")
	}
	if s.frames.Add(1) == 1 {
		s.startNs.Store(time.Now().UnixNano()) //fp:wallclock throughput-stats epoch, read once on the first frame; no output depends on it
	}
	if closed, meta := s.clock.Advance(rec.T); closed {
		s.broadcastClose(meta)
	}
	if !rec.Sender.IsZero() {
		// Resolve before computing values, exactly as the batch
		// accumulator does: a probe request opening a window has no
		// inter-arrival value yet still binds its MAC.
		sender := s.resolveSender(rec)
		if valid := core.MemberValues(s.cfgs, rec, s.clock.PrevT(), s.vals); valid != 0 {
			if s.inline != nil {
				s.inline.Observe(sender, rec.Class, s.vals, valid, rec.T)
			} else {
				s.enqueue(sender, rec.Class, valid, rec.T)
			}
		}
	}
	s.clock.Mark(rec.T)
}

// resolveSender routes attribution through the MAC-randomization
// clusterer when one is attached: the canonical device address — not
// the raw (possibly rotated) sender — is what gets shard-hashed, so a
// device's whole observation history accumulates in one shard. Runs on
// the router goroutine, which is the clusterer's single owner.
func (s *Sharded) resolveSender(rec *capture.Record) dot11.Addr {
	if s.opts.Cluster == nil {
		return rec.Sender
	}
	return s.opts.Cluster.Resolve(rec)
}

// PushTrace replays a materialised trace through the push path.
func (s *Sharded) PushTrace(tr *capture.Trace) {
	for i := range tr.Records {
		s.Push(&tr.Records[i])
	}
}

// slot returns the shard's current batch with space for one more
// observation, applying the Backpressure policy: under Drop a full
// queue costs only the observations that arrive while it stays full —
// a filled batch is retained and retried on the next call, never
// discarded wholesale — and Push never stalls. A nil return means the
// observation was dropped (and counted).
func (s *Sharded) slot(sh *shard) *shardMsg {
	cur := sh.cur
	if cur != nil && cur.n == shardBatch {
		// A full batch is waiting for queue space (Drop policy only).
		select {
		case sh.ch <- cur:
			cur = nil
			sh.cur = nil
		default:
			s.droppedFrames.Add(1) // queue still full: lose this observation only
			return nil
		}
	}
	if cur == nil {
		if s.opts.Backpressure == Drop {
			select {
			case cur = <-sh.free:
			default:
				s.droppedFrames.Add(1)
				return nil
			}
		} else {
			cur = <-sh.free
		}
		sh.cur = cur
	}
	return cur
}

// commit accounts one appended observation, sending the batch when
// full (per the Backpressure policy).
func (s *Sharded) commit(sh *shard, cur *shardMsg) {
	cur.n++
	if cur.n == shardBatch {
		if s.opts.Backpressure == Drop {
			select {
			case sh.ch <- cur:
				sh.cur = nil
			default:
				// Queue full: keep the batch current and retry in slot.
			}
			return
		}
		sh.ch <- cur
		sh.cur = nil
	}
}

// enqueue appends one observation — the router's vals buffer and the
// validity mask — to its shard's current batch.
func (s *Sharded) enqueue(addr dot11.Addr, class dot11.Class, valid uint8, t int64) {
	sh := s.shards[s.shardOf(addr)]
	cur := s.slot(sh)
	if cur == nil {
		return
	}
	cur.entries[cur.n] = routedObs{addr: addr, class: class, valid: valid, t: t}
	vals := cur.vals[cur.n*len(s.vals):]
	for m, v := range s.vals { // a loop, not copy: a memmove call costs more than the few members
		vals[m] = v
	}
	s.commit(sh, cur)
}

// broadcastClose flushes every shard's partial batch and appends the
// close-window control carrying the global window metadata. Controls
// are never dropped — window clocking survives the Drop policy — and
// per-shard FIFO order guarantees each shard sees all of a window's
// observations before its close. Inline, the one table is drained and
// the window emitted right here, on the pushing goroutine.
//
//fp:coldpath one control broadcast per closed window
func (s *Sharded) broadcastClose(meta core.WindowMeta) {
	s.closes++
	if s.inline != nil {
		seg := newSegment(meta)
		s.inline.Drain(&seg.res)
		s.emitWindowSafe([]shardSegment{seg})
		return
	}
	for _, sh := range s.shards {
		msg := sh.cur
		sh.cur = nil
		if msg == nil {
			msg = <-sh.free
		}
		msg.closeWin = true
		msg.meta = meta
		sh.ch <- msg
	}
}

// Flush closes the currently open detection window early and blocks
// until its events (and those of every earlier window) have been
// delivered to the sink. The next pushed record opens a fresh window on
// the same grid.
func (s *Sharded) Flush() {
	if closed, meta := s.clock.CloseOpen(); closed {
		s.broadcastClose(meta)
	}
	target := s.closes
	s.mu.Lock()
	for s.emitted < target {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close flushes the open window, waits for every event to be delivered,
// and stops the shard and merger goroutines; further pushes panic.
// Close is idempotent.
func (s *Sharded) Close() {
	if s.closed {
		return
	}
	s.Flush()
	s.closed = true
	if s.inline != nil {
		return // no goroutines to stop
	}
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.shardWG.Wait()
	s.mergerWG.Wait()
	if s.watchStop != nil {
		close(s.watchStop)
		s.watchWG.Wait()
	}
}

// runWatchdog samples each shard's progress counter every interval: a
// shard with queued batches that drained none since the last sample is
// stalled — wedged on a slow sink, a livelocked table, an injected
// fault — and is reported once per stall edge (ShardStalled, then
// ShardResumed when it moves again). Reads are two atomic loads per
// shard per tick; the push path is never touched.
func (s *Sharded) runWatchdog(interval time.Duration) {
	defer s.watchWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	last := make([]uint64, len(s.shards))
	ticks := make([]int, len(s.shards))
	for {
		select {
		case <-s.watchStop:
			return
		case <-tick.C:
		}
		for i, sh := range s.shards {
			cur := sh.processed.Load()
			queued := len(sh.ch)
			if cur == last[i] && queued > 0 {
				ticks[i]++
				if s.health.setStalled(i, true) {
					if hs := s.opts.HealthSink; hs != nil {
						hs.HandleEvent(ShardStalled{Shard: i, Queued: queued, For: time.Duration(ticks[i]) * interval})
					}
				}
			} else {
				ticks[i] = 0
				if s.health.setStalled(i, false) {
					if hs := s.opts.HealthSink; hs != nil {
						hs.HandleEvent(ShardResumed{Shard: i})
					}
				}
			}
			last[i] = cur
		}
	}
}

// Health snapshots the engine's supervision state: recovered panics,
// stalled shards, and per-shard queue depths (nil inline, where there
// are no queues). Safe from any goroutine.
func (s *Sharded) Health() Health {
	h := s.health.snapshot()
	if s.inline != nil {
		return h
	}
	h.QueueDepths = make([]int, len(s.shards))
	for i, sh := range s.shards {
		h.QueueDepths[i] = len(sh.ch)
	}
	return h
}

// runShard is one shard goroutine: it drains the queue, accumulates
// observations into the shard's sender table, and on each close control
// drains the table, matches the shard's candidates with its private
// scratch, and ships the segment to the merger.
func (s *Sharded) runShard(id int, sh *shard) {
	defer s.shardWG.Done()
	var scratch core.EnsembleScratch
	for msg := range sh.ch {
		s.shardProcess(id, sh, msg, &scratch)
		sh.processed.Add(1)
		msg.n = 0
		msg.closeWin = false
		sh.free <- msg
	}
}

// shardProcess handles one queued message under panic supervision: a
// panic — from the batch hook, the sender table, or matching — loses
// that message's observations (and, on a close control, the shard's
// slice of the window) but never the shard goroutine, and never the
// window protocol: the merger still receives a segment for every
// (shard, window) pair, so windows keep completing and Flush/Close
// keep returning. The loss is counted in Health as a shard panic.
//
//fp:hotpath test=TestShardedPushZeroAllocs
func (s *Sharded) shardProcess(id int, sh *shard, msg *shardMsg, scratch *core.EnsembleScratch) {
	sent := false
	defer func() {
		if r := recover(); r != nil {
			s.health.recordPanic(s.opts.HealthSink, "shard", id, r)
			if msg.closeWin && !sent {
				// Ship the close control's segment even though its content
				// was lost: an empty segment keeps the merge complete.
				s.segCh <- newSegment(msg.meta)
			}
		}
	}()
	if h := s.opts.Hooks.ShardBatch; h != nil {
		h(id, msg.n)
	}
	nm := len(s.cfgs)
	for i := 0; i < msg.n; i++ {
		o := &msg.entries[i]
		sh.table.Observe(o.addr, o.class, msg.vals[i*nm:(i+1)*nm], o.valid, o.t)
	}
	if msg.closeWin {
		s.shardClose(sh, msg, scratch, &sent)
	}
}

// shardClose drains the shard's slice of a closing window, matches it
// (unless matching is deferred to the merger) and ships the segment.
// *sent flips just before the send so shardProcess's recovery never
// double-ships a segment.
//
//fp:coldpath runs once per (shard, window) close control; drain and match amortise across the window's frames
func (s *Sharded) shardClose(sh *shard, msg *shardMsg, scratch *core.EnsembleScratch, sent *bool) {
	seg := newSegment(msg.meta)
	sh.table.Drain(&seg.res)
	// With a trainer attached matching is deferred to the merger,
	// so window k's enrollment swap is installed before window
	// k+1's candidates are matched (see ShardedOptions.Trainer).
	if edb := s.edb.Load(); !s.deferMatch && edb != nil && edb.Len() > 0 && len(seg.res.Candidates) > 0 {
		if s.opts.TopK > 0 {
			seg.fused = edb.TopKAllScratch(seg.res.Candidates, s.opts.TopK, scratch)
		} else {
			seg.fused, seg.perParam = edb.MatchAllScratch(seg.res.Candidates, scratch)
		}
	}
	*sent = true
	s.segCh <- seg
}

// newSegment returns an empty segment of the window meta describes.
func newSegment(meta core.WindowMeta) shardSegment {
	return shardSegment{meta: meta, res: core.WindowResult{
		Index: meta.Index, Start: meta.Start, End: meta.End, Frames: meta.Frames,
	}}
}

// runMerger joins shard segments back into whole windows. Every shard
// contributes exactly one segment per close, and each shard emits its
// windows in close order through one FIFO channel, so the final segment
// of window k always arrives before the final segment of window k+1 —
// windows complete, and are emitted, in index order.
func (s *Sharded) runMerger() {
	defer s.mergerWG.Done()
	n := len(s.shards)
	pending := make(map[int][]shardSegment)
	for seg := range s.segCh {
		idx := seg.meta.Index
		pending[idx] = append(pending[idx], seg)
		if len(pending[idx]) == n {
			segs := pending[idx]
			delete(pending, idx)
			s.emitWindowSafe(segs)
		}
	}
}

// emitWindowSafe runs one window's merge-and-emit under panic
// supervision. Whatever happens inside — a panicking sink, a matching
// fault, a merger hook fault — the window is always accounted as
// emitted and cond is always broadcast, so Flush and Close can never
// deadlock on a lost window; the loss is counted in Health instead, as
// a merger panic, or an engine panic inline (where the pushing
// goroutine delivers the window).
func (s *Sharded) emitWindowSafe(segs []shardSegment) {
	var c windowCounts
	func() {
		defer func() {
			if r := recover(); r != nil {
				component := "merger"
				if s.inline != nil {
					component = "engine"
				}
				s.health.recordPanic(s.opts.HealthSink, component, -1, r)
			}
		}()
		if h := s.opts.Hooks.MergerWindow; h != nil {
			h(segs[0].meta.Index)
		}
		c = s.emitWindow(segs)
	}()
	s.mu.Lock()
	s.windows++
	s.matched += uint64(c.matched)
	s.unknown += uint64(c.unknown)
	s.dropped += uint64(c.dropped)
	s.evicted += uint64(c.evicted)
	s.emitted++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// windowCounts is emitWindow's contribution to the snapshot counters.
type windowCounts struct {
	matched, unknown, dropped, evicted int
}

// addrLess orders candidates and drops across shard segments.
func addrLess(a, b [6]byte) bool { return bytes.Compare(a[:], b[:]) < 0 }

// addrCmp is addrLess's three-way form, for slices.SortFunc (which,
// unlike sort.Slice, sorts without boxing through sort.Interface).
func addrCmp(a, b [6]byte) int { return bytes.Compare(a[:], b[:]) }

// mergeByAddr walks per-segment sorted slices in one global ascending
// address order: n(k) is segment k's length, addr(k, i) its i-th
// address, and emit is called once per element in merged order. Shard
// address sets are disjoint and each segment is already sorted, so the
// N-way head merge reproduces a single table's per-window order
// exactly.
func mergeByAddr(segs int, n func(int) int, addr func(k, i int) [6]byte, emit func(k, i int)) {
	pos := make([]int, segs)
	for {
		best := -1
		for k := 0; k < segs; k++ {
			if pos[k] >= n(k) {
				continue
			}
			if best < 0 || addrLess(addr(k, pos[k]), addr(best, pos[best])) {
				best = k
			}
		}
		if best < 0 {
			return
		}
		emit(best, pos[best])
		pos[best]++
	}
}

// emitWindow merges one window's shard segments into the engine's
// event order — verdicts ascending by address, then drops ascending by
// address, then the WindowClosed summary — and returns the window's
// counter contributions (accounted by emitWindowSafe).
func (s *Sharded) emitWindow(segs []shardSegment) windowCounts {
	meta := segs[0].meta
	sink := s.opts.Sink

	matchedN, unknownN, candsN := 0, 0, 0
	// Both branches run every candidate through the same verdict
	// accounting, so a change to it cannot drift the emit-time-matched
	// stream from the shard-matched one.
	verdict := func(c *core.MultiCandidate, fused []core.Score, perParam [][]core.Score) {
		candsN++
		if emitCandidate(sink, s.opts.Threshold, c, fused, perParam) {
			matchedN++
		} else {
			unknownN++
		}
	}
	var merged []core.MultiCandidate // the merged window, for the trainer
	if s.deferMatch {
		// Inline or trainer mode: the segments carry unmatched
		// candidates. Merge them into ascending-address window order (a
		// single segment already is), then match the whole window here —
		// after any swap the previous window's enrollment installed —
		// fanning out across s.workers.
		merged = segs[0].res.Candidates
		if len(segs) > 1 {
			total := 0
			for k := range segs {
				total += len(segs[k].res.Candidates)
			}
			merged = make([]core.MultiCandidate, 0, total)
			mergeByAddr(len(segs),
				func(k int) int { return len(segs[k].res.Candidates) },
				func(k, i int) [6]byte { return segs[k].res.Candidates[i].Addr },
				func(k, i int) { merged = append(merged, segs[k].res.Candidates[i]) })
		}
		var fused [][]core.Score
		var perParam [][][]core.Score
		if edb := s.edb.Load(); edb != nil && edb.Len() > 0 && len(merged) > 0 {
			if s.opts.TopK > 0 {
				fused = edb.TopKAllWorkers(merged, s.opts.TopK, s.workers)
			} else {
				fused, perParam = edb.MatchAllWorkers(merged, s.workers)
			}
		}
		for i := range merged {
			verdict(&merged[i], row(fused, i), row(perParam, i))
		}
	} else {
		mergeByAddr(len(segs),
			func(k int) int { return len(segs[k].res.Candidates) },
			func(k, i int) [6]byte { return segs[k].res.Candidates[i].Addr },
			func(k, i int) {
				verdict(&segs[k].res.Candidates[i], row(segs[k].fused, i), row(segs[k].perParam, i))
			})
	}

	droppedN, evictedN := 0, 0
	mergeByAddr(len(segs),
		func(k int) int { return len(segs[k].res.Dropped) },
		func(k, i int) [6]byte { return segs[k].res.Dropped[i].Addr },
		func(k, i int) {
			d := segs[k].res.Dropped[i]
			droppedN++
			if d.Evicted {
				evictedN++
			}
			if sink != nil {
				sink.HandleEvent(CandidateDropped{
					Window: meta.Index, Addr: d.Addr,
					Observations: d.Observations, Minimum: s.cfgs[0].MinObservations,
					Evicted: d.Evicted,
				})
			}
		})
	// Evictions beyond the per-shard record cap carry no individual
	// event but count everywhere a total does.
	for k := range segs {
		droppedN += int(segs[k].res.EvictedSilently)
		evictedN += int(segs[k].res.EvictedSilently)
	}

	if sink != nil {
		sink.HandleEvent(WindowClosed{
			Window: meta.Index, Start: meta.Start, End: meta.End, Frames: meta.Frames,
			Senders:    candsN + droppedN,
			Candidates: candsN,
			Matched:    matchedN, Unknown: unknownN, Dropped: droppedN,
		})
	}

	// Enrollment runs after the window's own events and before emitted
	// is advanced, so Flush/Close returning guarantees the flushed
	// windows' promotions (and their events) have landed. The trainer
	// step is supervised separately: a panic in it loses this window's
	// enrollment (counted as a trainer fault) but not the window.
	if tr := s.opts.Trainer; tr != nil {
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.health.recordPanic(s.opts.HealthSink, "trainer", -1, r)
				}
			}()
			tr.observe(meta.Index, merged, sinkEmit(sink))
		}()
	}

	return windowCounts{matched: matchedN, unknown: unknownN, dropped: droppedN, evicted: evictedN}
}

// Stats returns a snapshot of the engine's counters. The window-scoped
// counters are one consistent group (see Stats); Frames and
// DroppedFrames may run ahead by the records still queued in shards.
func (s *Sharded) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		WindowsClosed: s.windows,
		Matched:       s.matched,
		Unknown:       s.unknown,
		Dropped:       s.dropped,
		Evicted:       s.evicted,
	}
	s.mu.Unlock()
	st.Candidates = st.Matched + st.Unknown
	st.Frames = s.frames.Load()
	st.DroppedFrames = s.droppedFrames.Load()
	for _, sh := range s.shards {
		st.LiveSenders += sh.table.LiveSenders()
	}
	if edb := s.edb.Load(); edb != nil {
		st.Index = edb.IndexStats()
	}
	if ns := s.startNs.Load(); ns != 0 {
		st.Elapsed = time.Duration(time.Now().UnixNano() - ns) //fp:wallclock stats-only elapsed/throughput; no event output depends on it
		if st.Elapsed > 0 {
			st.FramesPerSec = float64(st.Frames) / st.Elapsed.Seconds()
		}
	}
	return st
}
