package core

import (
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
)

// newTable1 creates a single-parameter table — an ensemble of one.
func newTable1(cfg Config, limits SenderLimits) *SenderTable {
	t, err := NewSenderTable([]Config{cfg}, limits)
	if err != nil {
		panic(err)
	}
	return t
}

// observe1 adds one single-parameter observation.
func observe1(t *SenderTable, addr dot11.Addr, class dot11.Class, v float64, now int64) {
	t.Observe(addr, class, []float64{v}, 1, now)
}

// TestSenderTableCapChurn is the bounded-memory acceptance test: 100k
// distinct randomized MACs stream through a capped table and the live
// sender count — the signature memory — never exceeds the cap, while
// every evicted sender is accounted for in the drained window.
func TestSenderTableCapChurn(t *testing.T) {
	t.Parallel()
	const cap = 1024
	tab := newTable1(Config{Param: ParamSize}, SenderLimits{MaxSenders: cap})
	x := uint64(7)
	seen := make(map[dot11.Addr]bool)
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := dot11.LocalAddr(x >> 16)
		seen[addr] = true
		observe1(tab, addr, dot11.ClassData, 300, int64(i)*100)
		if tab.Len() > cap {
			t.Fatalf("after %d observations the table holds %d senders, cap is %d", i+1, tab.Len(), cap)
		}
	}
	var res WindowResult
	tab.Drain(&res)
	if tab.Len() != 0 || tab.LiveSenders() != 0 {
		t.Fatalf("drain left %d/%d senders", tab.Len(), tab.LiveSenders())
	}
	// Every distinct sender is accounted for — as a candidate, a
	// detailed drop record, or a silently counted eviction (re-tracked
	// evictees may appear more than once) — and evictions cover the
	// overflow past the cap.
	total := uint64(len(res.Candidates)+len(res.Dropped)) + res.EvictedSilently
	if total < uint64(len(seen)) {
		t.Fatalf("%d candidates + dropped + silent for %d distinct senders", total, len(seen))
	}
	if got := tab.EvictedTotal(); got < uint64(len(seen)-cap) {
		t.Fatalf("%d evictions for %d distinct senders over cap %d", got, len(seen), cap)
	}
	evicted := 0
	for _, d := range res.Dropped {
		if d.Evicted {
			evicted++
		}
	}
	if uint64(evicted)+res.EvictedSilently != tab.EvictedTotal() {
		t.Fatalf("%d evicted entries + %d silent, counter says %d",
			evicted, res.EvictedSilently, tab.EvictedTotal())
	}
	// The bookkeeping itself is bounded: detailed eviction records are
	// capped, the ~95k overflow is counted, not stored.
	if evicted > 4*cap || evicted < cap {
		t.Fatalf("%d detailed eviction records for cap %d, want within [cap, 4·cap∨4096]", evicted, cap)
	}
	if res.EvictedSilently == 0 {
		t.Fatal("100k-MAC churn never overflowed the eviction record cap")
	}
}

// TestSenderTableIdleEvict pins the idle policy: a sender that goes
// quiet for longer than the bound is evicted by a later insertion's
// sweep, while active senders survive.
func TestSenderTableIdleEvict(t *testing.T) {
	t.Parallel()
	tab := newTable1(Config{Param: ParamSize}, SenderLimits{IdleEvict: time.Second})
	quiet := dot11.LocalAddr(1)
	busy := dot11.LocalAddr(2)
	observe1(tab, quiet, dot11.ClassData, 100, 0)
	for i := 0; i < 100; i++ {
		observe1(tab, busy, dot11.ClassData, 100, int64(i)*100_000) // every 100 ms
	}
	// A new sender 10 s in triggers the sweep; quiet (last seen at 0)
	// is over the 1 s bound, busy is not.
	observe1(tab, dot11.LocalAddr(3), dot11.ClassData, 100, 10_000_000)
	if tab.Len() != 2 {
		t.Fatalf("table holds %d senders, want 2 (busy + newcomer)", tab.Len())
	}
	var res WindowResult
	tab.Drain(&res)
	foundQuiet := false
	for _, d := range res.Dropped {
		if d.Addr == quiet {
			foundQuiet = true
			if !d.Evicted || d.Observations != 1 {
				t.Fatalf("quiet sender drop record = %+v", d)
			}
		}
		if d.Addr == busy {
			t.Fatalf("busy sender was evicted: %+v", d)
		}
	}
	if !foundQuiet {
		t.Fatal("idle sender never surfaced in Dropped")
	}
}

// TestSenderTableIdleEvictStablePopulation pins that sweeps are driven
// by every observation, not just new-sender insertions: with a fixed
// sender set (no insertions after startup), a one-time visitor still
// ages out on the busy sender's traffic alone.
func TestSenderTableIdleEvictStablePopulation(t *testing.T) {
	t.Parallel()
	tab := newTable1(Config{Param: ParamSize}, SenderLimits{IdleEvict: time.Second})
	quiet := dot11.LocalAddr(1)
	busy := dot11.LocalAddr(2)
	observe1(tab, quiet, dot11.ClassData, 100, 0)
	for i := 0; i < 100; i++ {
		observe1(tab, busy, dot11.ClassData, 100, int64(i)*100_000) // every 100 ms, no newcomers
	}
	if tab.Len() != 1 {
		t.Fatalf("table holds %d senders after 10 s of stable traffic, want 1 (quiet evicted)", tab.Len())
	}
	if tab.EvictedTotal() != 1 {
		t.Fatalf("evicted %d senders, want 1", tab.EvictedTotal())
	}
}

// TestAccumulatorLimitsEquivalence pins that zero limits leave the
// accumulator byte-for-byte equivalent (the default path is untouched)
// and that eviction order is deterministic: two identical runs with the
// same cap produce identical results.
func TestAccumulatorLimitsEquivalence(t *testing.T) {
	t.Parallel()
	mkTrace := func() *capture.Trace {
		tr := &capture.Trace{}
		x := uint64(3)
		for i := 0; i < 30_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			tr.Records = append(tr.Records, capture.Record{
				T:      int64(i) * 1000,
				Sender: dot11.LocalAddr(x % 500), // 500 senders, zipf-ish reuse
				Class:  dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
			})
		}
		return tr
	}
	run := func(limits SenderLimits) []*WindowResult {
		var out []*WindowResult
		acc := NewWindowAccumulator(5*time.Second, Config{Param: ParamSize, MinObservations: 5},
			func(w *WindowResult) { out = append(out, w) })
		acc.SetLimits(limits)
		tr := mkTrace()
		for i := range tr.Records {
			acc.Push(&tr.Records[i])
		}
		acc.Flush()
		return out
	}

	a := run(SenderLimits{MaxSenders: 64})
	b := run(SenderLimits{MaxSenders: 64})
	if len(a) != len(b) {
		t.Fatalf("eviction nondeterministic: %d vs %d windows", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Candidates) != len(b[i].Candidates) || len(a[i].Dropped) != len(b[i].Dropped) {
			t.Fatalf("window %d: %d/%d candidates, %d/%d dropped", i,
				len(a[i].Candidates), len(b[i].Candidates), len(a[i].Dropped), len(b[i].Dropped))
		}
		for j := range a[i].Dropped {
			if a[i].Dropped[j] != b[i].Dropped[j] {
				t.Fatalf("window %d drop %d: %+v vs %+v", i, j, a[i].Dropped[j], b[i].Dropped[j])
			}
		}
		for j := range a[i].Candidates {
			if a[i].Candidates[j].Addr != b[i].Candidates[j].Addr {
				t.Fatalf("window %d candidate %d: %x vs %x", i, j,
					a[i].Candidates[j].Addr, b[i].Candidates[j].Addr)
			}
		}
	}

	// Unbounded: identical to the pre-limit behaviour (CandidatesIn).
	unbounded := run(SenderLimits{})
	var cands []MultiCandidate
	for _, w := range unbounded {
		cands = append(cands, w.Candidates...)
	}
	want := CandidatesIn(mkTrace(), 5*time.Second, Config{Param: ParamSize, MinObservations: 5})
	if len(cands) != len(want) {
		t.Fatalf("unbounded accumulator drifted: %d candidates, want %d", len(cands), len(want))
	}
	for i := range want {
		if cands[i].Addr != want[i].Addr || cands[i].Window != want[i].Window {
			t.Fatalf("candidate %d: (%x, w%d), want (%x, w%d)", i,
				cands[i].Addr, cands[i].Window, want[i].Addr, want[i].Window)
		}
	}
}
