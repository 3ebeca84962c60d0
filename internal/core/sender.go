package core

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"dot11fp/internal/dot11"
)

// SenderLimits bounds the per-window sender state of a SenderTable (and
// with it a WindowAccumulator or engine). The zero value imposes no
// bounds — memory then grows with the number of distinct senders seen
// in a window, which under MAC randomization can be orders of magnitude
// larger than the number of physical devices.
type SenderLimits struct {
	// MaxSenders caps the number of concurrently tracked senders.
	// Inserting a sender beyond the cap evicts the least-recently-seen
	// senders first (a deterministic function of the record stream), so
	// signature memory is O(MaxSenders) instead of O(distinct MACs).
	// Zero means unbounded.
	MaxSenders int
	// IdleEvict evicts senders that have not transmitted for at least
	// this long (in record time, not wall clock). Zero disables idle
	// eviction. Eviction sweeps are triggered from the observation path,
	// so they too are a deterministic function of the record stream.
	IdleEvict time.Duration
}

// senderEntry is one tracked sender: its accumulating signatures (one
// per member) and the
// record time it was last seen, for recency-based eviction.
type senderEntry struct {
	sigs  []*Signature
	lastT int64
}

// SenderTable accumulates per-sender signatures for one detection
// window with optionally bounded state. It is the sender-map core of
// WindowAccumulator, split out so a sharded engine can own one table
// per shard and clock them externally.
//
// A table keeps one signature per member parameter per sender (a
// single-parameter table is an ensemble of one). All members share the
// sender's eviction recency, so bounded state evicts a sender whole,
// never one member of it.
//
// Observe and Drain must be called from a single goroutine;
// LiveSenders is safe to read from any goroutine.
type SenderTable struct {
	cfgs    []Config // one per member
	limits  SenderLimits
	idleUs  int64
	entries map[dot11.Addr]*senderEntry
	evicted []DroppedSender
	silent  uint64 // evictions beyond the per-window record cap

	sweepT  int64 // record time of the last idle sweep
	scratch []evictCand

	live         atomic.Int64
	evictedTotal atomic.Uint64
}

// evictRecordFloor bounds the per-window detailed eviction records (see
// recordCap): without a cap the evicted list itself would grow with the
// number of distinct MACs churned through a window, re-creating exactly
// the unbounded memory SenderLimits exists to prevent.
const evictRecordFloor = 4096

// recordCap is the most per-window eviction records the table retains;
// evictions beyond it are tallied in WindowResult.EvictedSilently.
func (t *SenderTable) recordCap() int {
	if c := 4 * t.limits.MaxSenders; c > evictRecordFloor {
		return c
	}
	return evictRecordFloor
}

// evictCand is the reusable sort record of the eviction scan.
type evictCand struct {
	addr  dot11.Addr
	lastT int64
}

// NewSenderTable creates a table accumulating one signature per member
// configuration per sender (zero fields materialised as everywhere
// else) with the given bounds. Member configurations must carry
// distinct parameters (at most MaxEnsembleMembers).
func NewSenderTable(cfgs []Config, limits SenderLimits) (*SenderTable, error) {
	if err := validateEnsembleConfigs(cfgs); err != nil {
		return nil, err
	}
	t := &SenderTable{
		cfgs:    make([]Config, len(cfgs)),
		limits:  limits,
		idleUs:  limits.IdleEvict.Microseconds(),
		entries: make(map[dot11.Addr]*senderEntry),
		sweepT:  -1,
	}
	for i, cfg := range cfgs {
		t.cfgs[i] = cfg.withDefaults()
	}
	return t, nil
}

// Configs returns every member configuration with defaults
// materialised, in member order.
func (t *SenderTable) Configs() []Config {
	out := make([]Config, len(t.cfgs))
	copy(out, t.cfgs)
	return out
}

// SetLimits replaces the table's bounds. Existing state is kept; the
// new bounds apply from the next observation.
func (t *SenderTable) SetLimits(l SenderLimits) {
	t.limits = l
	t.idleUs = l.IdleEvict.Microseconds()
}

// Len returns the number of currently tracked senders.
func (t *SenderTable) Len() int { return len(t.entries) }

// LiveSenders returns the number of currently tracked senders; unlike
// Len it is safe to call from any goroutine.
func (t *SenderTable) LiveSenders() int { return int(t.live.Load()) }

// EvictedTotal returns the number of senders evicted so far over the
// table's lifetime (cap plus idle evictions, across every window). Safe
// from any goroutine.
func (t *SenderTable) EvictedTotal() uint64 { return t.evictedTotal.Load() }

// entry returns addr's live entry, creating it (and applying the
// bounded-state rules in the exact order the record stream dictates:
// idle sweep, cap eviction, insert) when the sender is new. now is the
// record's end of reception.
func (t *SenderTable) entry(addr dot11.Addr, now int64) *senderEntry {
	if t.idleUs > 0 {
		// Sweep at most once per idle period, on whichever observation
		// crosses it — a stable sender population still ages out its
		// one-time visitors, at an amortised O(1) per observation.
		if t.sweepT < 0 {
			t.sweepT = now
		} else if now-t.sweepT >= t.idleUs {
			t.sweepIdle(now)
		}
	}
	e, ok := t.entries[addr]
	if !ok {
		if t.limits.MaxSenders > 0 && len(t.entries) >= t.limits.MaxSenders {
			t.evictOldest()
		}
		e = &senderEntry{sigs: make([]*Signature, len(t.cfgs))} //fp:allocok per-sender admission; amortised across the sender's frames
		for i, cfg := range t.cfgs {
			e.sigs[i] = NewSignature(cfg.Param, cfg.Bins)
		}
		t.entries[addr] = e
		t.live.Store(int64(len(t.entries)))
	}
	e.lastT = now
	return e
}

// Observe adds one record's attributed observations for every member
// at once: vals[m] is member m's parameter value, applied only where
// bit m of the valid mask is set (a parameter can be undefined for a record — e.g.
// inter-arrival at a window start — without hiding the record from the
// members where it is defined). Callers have already applied the
// attribution rules and computed the values (MemberValues) —
// WindowAccumulator for the serial paths, the sharded engine's router
// for the concurrent one. Call only when at least one member is valid,
// so sender recency, eviction and entry creation stay a deterministic
// function of the attributed record stream.
//
//fp:hotpath test=TestEnginePushZeroAllocs
func (t *SenderTable) Observe(addr dot11.Addr, class dot11.Class, vals []float64, valid uint8, now int64) {
	e := t.entry(addr, now)
	for m := range t.cfgs {
		if valid&(1<<m) != 0 {
			e.sigs[m].Add(class, vals[m])
		}
	}
}

// sweepIdle evicts every sender whose last observation is at least the
// idle bound behind now.
//
//fp:coldpath one sweep per idle period, amortised O(1) per observation
func (t *SenderTable) sweepIdle(now int64) {
	t.sweepT = now
	cut := now - t.idleUs
	for addr, e := range t.entries {
		if e.lastT <= cut {
			t.evict(addr, e)
		}
	}
	t.live.Store(int64(len(t.entries)))
}

// evictOldest removes the least-recently-seen eighth of the cap (at
// least one sender) so the O(n log n) scan amortises to O(log n) per
// over-cap insertion. Ties on last-seen time break by ascending
// address, keeping eviction a deterministic function of the stream.
//
//fp:coldpath one batch eviction per MaxSenders/8 over-cap insertions, amortised O(log n) per insertion
func (t *SenderTable) evictOldest() {
	cands := t.scratch[:0]
	for addr, e := range t.entries { //fp:unordered candidates are sorted by (lastT, addr) below; eviction is order-independent
		cands = append(cands, evictCand{addr: addr, lastT: e.lastT})
	}
	slices.SortFunc(cands, func(a, b evictCand) int {
		if a.lastT != b.lastT {
			return cmp.Compare(a.lastT, b.lastT)
		}
		return cmpAddr(a.addr, b.addr)
	})
	k := t.limits.MaxSenders / 8
	if k < 1 {
		k = 1
	}
	if k > len(cands) {
		k = len(cands)
	}
	for _, c := range cands[:k] {
		t.evict(c.addr, t.entries[c.addr])
	}
	t.scratch = cands[:0] // keep the grown buffer
	t.live.Store(int64(len(t.entries)))
}

// maxObs returns the largest observation count across member
// signatures — the reporting convention: how much traffic was
// attributed to the sender under its best-covered parameter (members
// differ only through per-parameter value validity).
func maxObs(sigs []*Signature) uint64 {
	var max uint64
	for _, sig := range sigs {
		if n := sig.Observations(); n > max {
			max = n
		}
	}
	return max
}

// evict removes one sender, recording it for the window's Dropped list.
// Only the address and observation count survive eviction — the
// signature memory is released, which is the point of the bound. An
// evicted sender that transmits again starts a fresh signature and may
// therefore be reported twice for the same window; the information loss
// is explicit in the event stream. Detailed records are themselves
// capped per window (recordCap): under a MAC-randomization flood the
// evictions beyond the cap are only counted, keeping the table's whole
// footprint O(MaxSenders), not O(churn).
func (t *SenderTable) evict(addr dot11.Addr, e *senderEntry) {
	if len(t.evicted) < t.recordCap() {
		t.evicted = append(t.evicted, DroppedSender{
			Addr:         addr,
			Observations: maxObs(e.sigs),
			Evicted:      true,
		})
	} else {
		t.silent++
	}
	t.evictedTotal.Add(1)
	delete(t.entries, addr)
}

// qualifies reports whether an entry clears the minimum-observation
// rule of every member (a sender clearing some members but not all
// stays a Dropped sender, never a candidate: the all-members
// requirement is explicit here).
func (t *SenderTable) qualifies(e *senderEntry) bool {
	for m, cfg := range t.cfgs {
		if e.sigs[m].Observations() < uint64(cfg.MinObservations) {
			return false
		}
	}
	return true
}

// Drain moves the table's state into res: senders that cleared the
// minimum-observation rule of every member become res.Candidates,
// ascending by address with res.Index as their window; the rest plus
// every evicted sender become res.Dropped (ascending address;
// below-minimum entries sort before evicted ones at equal addresses).
// A dropped sender reports its best member's observation count. The
// table is reset for the next window; everything in res is handed off
// without aliasing.
func (t *SenderTable) Drain(res *WindowResult) {
	for _, addr := range sortedAddrs(t.entries) {
		e := t.entries[addr]
		if t.qualifies(e) {
			res.Candidates = append(res.Candidates, MultiCandidate{Addr: addr, Window: res.Index, Sigs: e.sigs})
		} else {
			res.Dropped = append(res.Dropped, DroppedSender{Addr: addr, Observations: maxObs(e.sigs)})
		}
	}
	if len(t.evicted) > 0 {
		res.Dropped = append(res.Dropped, t.evicted...)
		slices.SortStableFunc(res.Dropped, func(a, b DroppedSender) int {
			return cmpAddr(a.Addr, b.Addr)
		})
		t.evicted = t.evicted[:0]
	}
	res.EvictedSilently = t.silent
	t.silent = 0
	clear(t.entries)
	t.sweepT = -1
	t.live.Store(0)
}
