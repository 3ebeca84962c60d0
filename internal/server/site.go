// Package server is fingerprinting as a service: an HTTP face over the
// streaming engines — a JSON query API ("who is sender X"), a
// server-sent-events verdict feed, remote checkpoint save/load, and
// Prometheus-text metrics — multi-tenant over named sites, each site
// one engine plus its reference set and (optionally) its online
// trainer. See the doc.go "Serving" section of the root package for
// the endpoint map and the security posture (trusted networks only).
//
// The server never touches the engines' hot path: everything it serves
// comes from the snapshot surfaces (Stats, Health, TrainerStats,
// SourceStats), from a verdict cache fed at window close, or from a
// one-shot batch engine of its own. Its sinks are attached in front of
// the daemon's own, record verdicts by reference (events are owned by
// the receiver), and fan out to SSE clients through non-blocking
// per-client buffers — a slow or dead HTTP client can never stall the
// pipeline, it only loses (counted) events.
package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dot11fp"
	"dot11fp/internal/checkpoint"
	"dot11fp/internal/cmdutil"
)

// EngineHandle is the slice of an engine the server needs: snapshots,
// configuration, and the reference views — all safe from any
// goroutine. *dot11fp.Engine (the one engine type, in either mode)
// implements it; as an interface it can also be embedded in a caller's
// own engine view or stood in for by a test double. DB is the sole member of a one-member reference set (else
// nil).
type EngineHandle interface {
	Stats() dot11fp.EngineStats
	Health() dot11fp.EngineHealth
	Config() dot11fp.Config
	Configs() []dot11fp.Config
	DB() *dot11fp.CompiledDB
	EnsembleDB() *dot11fp.CompiledEnsemble
	SetEnsembleDB(*dot11fp.CompiledEnsemble) error
}

// SiteOptions parameterises one site.
type SiteOptions struct {
	// Window and Threshold mirror the site's engine configuration; the
	// batch-scoring endpoint runs its one-shot engines with them.
	Window    time.Duration
	Threshold float64
	// CheckpointPath is where the checkpoint endpoints save and load
	// the site's references. The path is server-side configuration —
	// clients never name paths — and empty disables both endpoints.
	CheckpointPath string
	// Checkpoint carries the generation-chain options for saves and
	// loads on CheckpointPath.
	Checkpoint checkpoint.Options
	// FeedBuffer is each SSE client's event buffer (events encoded and
	// queued, not yet written). Zero selects 256.
	FeedBuffer int
	// MaxSenders bounds the verdict cache; beyond it the entry with the
	// oldest window (ties by ascending address) is evicted, so MAC
	// randomization cannot grow the server without bound. Zero selects
	// 4096.
	MaxSenders int
	// MaxBatchBytes bounds an uploaded pcap for batch scoring. Zero
	// selects 64 MiB.
	MaxBatchBytes int64
}

// Site is one tenant: an engine, its reference set, optionally its
// trainer and capture sources, plus the server-side state serving them
// — the verdict cache, the SSE fanout and the enrollment gate. Create
// it before the engine (the engine's Sink is fixed at construction and
// must include the site's — see Sink), then Attach the built engine.
type Site struct {
	name string
	opts SiteOptions

	mu       sync.RWMutex
	eng      EngineHandle
	trainer  *dot11fp.Trainer
	srcStats func() []dot11fp.SourceStats
	refsFn   func() cmdutil.References

	rec  *recorder
	feed *Fanout
	gate *EnrollGate

	// ckptMu serialises checkpoint saves and loads so two API calls (or
	// a call racing the daemon's own SIGHUP save through the same
	// generation chain) cannot interleave rotations.
	ckptMu sync.Mutex
}

// NewSite creates a site. The name is its routing key under
// /api/v1/sites/{site}.
func NewSite(name string, opts SiteOptions) *Site {
	if opts.FeedBuffer <= 0 {
		opts.FeedBuffer = 256
	}
	if opts.MaxSenders <= 0 {
		opts.MaxSenders = 4096
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = 64 << 20
	}
	if opts.Window <= 0 {
		opts.Window = dot11fp.DefaultWindow
	}
	return &Site{
		name: name,
		opts: opts,
		rec:  newRecorder(opts.MaxSenders),
		feed: NewFanout(opts.FeedBuffer),
		gate: NewEnrollGate(),
	}
}

// Name returns the site's routing key.
func (s *Site) Name() string { return s.name }

// Feed returns the site's SSE fanout.
func (s *Site) Feed() *Fanout { return s.feed }

// Gate returns the site's enrollment gate — wire its Decide into
// TrainerOptions.Decide (or cmdutil.EnrollFlags.Decide) to route
// confirm-mode enrollment through the HTTP API.
func (s *Site) Gate() *EnrollGate { return s.gate }

// Sink wraps next with the site's event taps: the verdict cache and
// the SSE fanout see every event first, then next (which may be nil).
// Pass the result as the engine's Options.Sink. Both taps are cheap
// and non-blocking — the cache only acts at window close (the hot push
// path never reaches a sink), and the fanout drops rather than waits.
func (s *Site) Sink(next dot11fp.Sink) dot11fp.Sink {
	//fp:mayblock bounded taps: verdict cache and drop-on-full fanout hold short mutexes and never wait on a consumer
	return dot11fp.SinkFunc(func(ev dot11fp.Event) {
		s.rec.observe(ev)
		s.feed.Publish(ev)
		if next != nil {
			next.HandleEvent(ev)
		}
	})
}

// Attach binds the running engine and its companions to the site.
// trainer may be nil (no online enrollment); srcStats may be nil (no
// supervised capture sources — e.g. livemon's single stream). The
// site's reference snapshot for checkpoints comes from the trainer
// when one is attached (the live, learning copy), else from static —
// which may be empty for reference-less runs.
func (s *Site) Attach(eng EngineHandle, trainer *dot11fp.Trainer, srcStats func() []dot11fp.SourceStats, static cmdutil.References) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng = eng
	s.trainer = trainer
	s.srcStats = srcStats
	if trainer != nil {
		s.refsFn = func() cmdutil.References {
			return cmdutil.References{Ens: trainer.Ensemble()}
		}
	} else {
		s.refsFn = func() cmdutil.References { return static }
	}
}

// engine returns the attached engine, or an error before Attach.
func (s *Site) engine() (EngineHandle, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.eng == nil {
		return nil, fmt.Errorf("site %q has no engine attached", s.name)
	}
	return s.eng, nil
}

// FeedStats is the SSE fanout's snapshot, part of SiteSnapshot.
type FeedStats struct {
	// Clients is the number of connected feed subscribers.
	Clients int `json:"clients"`
	// Events counts events published to the feed (whether or not any
	// client was connected); Dropped counts per-client discards from
	// full buffers, summed over clients past and present.
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// SiteSnapshot is the canonical point-in-time view of one site — the
// single shape behind both the JSON site endpoint and the /metrics
// encoder, so the two can never drift.
type SiteSnapshot struct {
	Site string `json:"site"`
	// Params are the engine's parameter short names (>1 = fusion);
	// WindowNS and Threshold the detection configuration.
	Params    []string `json:"params"`
	WindowNS  int64    `json:"window_ns"`
	Threshold float64  `json:"threshold"`
	// Refs is the current reference count; Degraded the shared
	// cmdutil.Degraded verdict over health and sources.
	Refs     int  `json:"refs"`
	Degraded bool `json:"degraded"`

	Stats   dot11fp.EngineStats   `json:"stats"`
	Health  dot11fp.EngineHealth  `json:"health"`
	Trainer *dot11fp.TrainerStats `json:"trainer,omitempty"`
	Sources []dot11fp.SourceStats `json:"sources,omitempty"`
	Feed    FeedStats             `json:"feed"`
}

// Snapshot builds the canonical site view.
func (s *Site) Snapshot() (SiteSnapshot, error) {
	eng, err := s.engine()
	if err != nil {
		return SiteSnapshot{}, err
	}
	s.mu.RLock()
	trainer, srcStats := s.trainer, s.srcStats
	s.mu.RUnlock()

	snap := SiteSnapshot{
		Site:      s.name,
		WindowNS:  s.opts.Window.Nanoseconds(),
		Threshold: s.opts.Threshold,
		Stats:     eng.Stats(),
		Health:    eng.Health(),
		Feed:      s.feed.Stats(),
	}
	for _, cfg := range eng.Configs() {
		snap.Params = append(snap.Params, cfg.Param.ShortName())
	}
	if edb := eng.EnsembleDB(); edb != nil {
		snap.Refs = edb.Len()
	}
	if trainer != nil {
		st := trainer.Stats()
		snap.Trainer = &st
	}
	if srcStats != nil {
		snap.Sources = srcStats()
	}
	snap.Degraded = cmdutil.Degraded(snap.Health, snap.Sources)
	return snap, nil
}

// SaveCheckpoint writes the site's current references to the
// configured checkpoint path (generation-chained, atomic, verified)
// and returns the reference count written.
func (s *Site) SaveCheckpoint() (int, error) {
	if s.opts.CheckpointPath == "" {
		return 0, fmt.Errorf("site %q has no checkpoint path configured", s.name)
	}
	s.mu.RLock()
	refsFn := s.refsFn
	s.mu.RUnlock()
	if refsFn == nil {
		return 0, fmt.Errorf("site %q has no engine attached", s.name)
	}
	refs := refsFn()
	if refs.Empty() {
		return 0, fmt.Errorf("site %q has no references to checkpoint yet", s.name)
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := cmdutil.SaveReferencesCheckpoint(s.opts.CheckpointPath, refs, s.opts.Checkpoint); err != nil {
		return 0, err
	}
	return refs.Len(), nil
}

// LoadCheckpoint reads the configured checkpoint path (falling back
// through the generation chain) and hot-swaps the references into the
// site's engine, returning the reference count and the generation that
// loaded (0 = the current file). A site with a trainer attached
// refuses: the trainer owns the references there, and swapping the
// engine underneath it would silently diverge the two.
func (s *Site) LoadCheckpoint() (refs int, gen int, err error) {
	if s.opts.CheckpointPath == "" {
		return 0, 0, fmt.Errorf("site %q has no checkpoint path configured", s.name)
	}
	eng, err := s.engine()
	if err != nil {
		return 0, 0, err
	}
	s.mu.RLock()
	trainer := s.trainer
	s.mu.RUnlock()
	if trainer != nil {
		return 0, 0, fmt.Errorf("site %q enrolls online: its trainer owns the references, checkpoint load refused", s.name)
	}
	s.ckptMu.Lock()
	loaded, gen, err := cmdutil.LoadReferencesChain(s.opts.CheckpointPath, s.opts.Checkpoint)
	s.ckptMu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	if loaded.Empty() {
		return 0, 0, fmt.Errorf("checkpoint %s held no references", s.opts.CheckpointPath)
	}
	if err := eng.SetEnsembleDB(loaded.Ens.Compile()); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	s.refsFn = func() cmdutil.References { return loaded }
	s.mu.Unlock()
	return loaded.Len(), gen, nil
}

// Registry routes site names to sites. Sites are added at daemon
// startup; lookups are concurrent with serving.
type Registry struct {
	mu    sync.RWMutex
	sites map[string]*Site
	order []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{sites: make(map[string]*Site)}
}

// Add registers a site under its name; a duplicate name fails.
func (r *Registry) Add(s *Site) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sites[s.name]; dup {
		return fmt.Errorf("site %q already registered", s.name)
	}
	r.sites[s.name] = s
	r.order = append(r.order, s.name)
	return nil
}

// Get returns the named site, nil if unknown.
func (r *Registry) Get(name string) *Site {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sites[name]
}

// List returns the sites in registration order.
func (r *Registry) List() []*Site {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Site, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.sites[name])
	}
	return out
}

// SenderVerdict is the verdict cache's record of one sender: its most
// recent per-window verdict, scores included. Scores follow the
// reference database's insertion order at verdict time (fused, on an
// ensemble site).
type SenderVerdict struct {
	Addr    string `json:"addr"`
	Window  int    `json:"window"`
	Matched bool   `json:"matched"`
	// Best names the winning reference when HasBest (Matched, or an
	// unknown that at least had references to lose against).
	Best         string  `json:"best,omitempty"`
	BestSim      float64 `json:"best_sim"`
	HasBest      bool    `json:"has_best"`
	Observations uint64  `json:"observations"`
	// Scores is the full similarity vector of the verdict (omitted in
	// the senders listing, populated on the single-sender endpoint).
	Scores []SenderScore `json:"scores,omitempty"`
}

// SenderScore is one reference's similarity within a verdict.
type SenderScore struct {
	Ref string  `json:"ref"`
	Sim float64 `json:"sim"`
}

// recorder is the verdict cache: the last verdict per sender, bounded
// by MaxSenders. Events arrive on the engine's delivery goroutine;
// reads come from HTTP handlers.
type recorder struct {
	mu         sync.RWMutex
	max        int
	last       map[dot11fp.Addr]*verdictEntry
	lastWindow int
	haveWindow bool
}

// verdictEntry retains the verdict event's handed-off data (events are
// owned by the receiver; the engine never reuses the score rows).
type verdictEntry struct {
	window  int
	matched bool
	best    dot11fp.Score
	hasBest bool
	obs     uint64
	scores  []dot11fp.Score
}

func newRecorder(max int) *recorder {
	return &recorder{max: max, last: make(map[dot11fp.Addr]*verdictEntry)}
}

// observe folds one engine event into the cache.
func (r *recorder) observe(ev dot11fp.Event) {
	switch ev := ev.(type) {
	case dot11fp.CandidateMatched:
		r.record(ev.Addr, &verdictEntry{
			window: ev.Window, matched: true,
			best: ev.Best, hasBest: true,
			obs: ev.Observations(), scores: ev.Scores,
		})
	case dot11fp.UnknownDevice:
		r.record(ev.Addr, &verdictEntry{
			window: ev.Window,
			best:   ev.Best, hasBest: ev.HasBest,
			obs: ev.Observations(), scores: ev.Scores,
		})
	case dot11fp.WindowClosed:
		r.mu.Lock()
		r.lastWindow, r.haveWindow = ev.Window, true
		r.mu.Unlock()
	}
}

func (r *recorder) record(addr dot11fp.Addr, e *verdictEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, present := r.last[addr]; !present && len(r.last) >= r.max {
		r.evict()
	}
	r.last[addr] = e
}

// evict removes the entry with the oldest window (ties by ascending
// address) — deterministic, like every other bounded-state decision in
// the pipeline. Called with mu held.
func (r *recorder) evict() {
	var victim dot11fp.Addr
	found := false
	for addr, e := range r.last {
		if !found {
			victim, found = addr, true
			continue
		}
		v := r.last[victim]
		if e.window < v.window || (e.window == v.window && addrBytesLess(addr, victim)) {
			victim = addr
		}
	}
	if found {
		delete(r.last, victim)
	}
}

func addrBytesLess(a, b dot11fp.Addr) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// get returns one sender's verdict, scores included.
func (r *recorder) get(addr dot11fp.Addr) (SenderVerdict, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.last[addr]
	if !ok {
		return SenderVerdict{}, false
	}
	v := e.verdict(addr)
	v.Scores = make([]SenderScore, len(e.scores))
	for i, sc := range e.scores {
		v.Scores[i] = SenderScore{Ref: sc.Addr.String(), Sim: sc.Sim}
	}
	return v, true
}

// list returns every cached sender's verdict summary (no score
// vectors), in ascending address order.
func (r *recorder) list() []SenderVerdict {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addrs := make([]dot11fp.Addr, 0, len(r.last))
	for addr := range r.last {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrBytesLess(addrs[i], addrs[j]) })
	out := make([]SenderVerdict, len(addrs))
	for i, addr := range addrs {
		out[i] = r.last[addr].verdict(addr)
	}
	return out
}

// window returns the most recent closed window index.
func (r *recorder) window() (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lastWindow, r.haveWindow
}

func (e *verdictEntry) verdict(addr dot11fp.Addr) SenderVerdict {
	v := SenderVerdict{
		Addr: addr.String(), Window: e.window, Matched: e.matched,
		HasBest: e.hasBest, Observations: e.obs,
	}
	if e.hasBest {
		v.Best, v.BestSim = e.best.Addr.String(), e.best.Sim
	}
	return v
}
