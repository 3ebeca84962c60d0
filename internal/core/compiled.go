package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// CompiledDB is an immutable, matching-optimised snapshot of a
// Database. Compilation freezes every reference signature into
// contiguous per-class [N×bins]float64 frequency matrices with the
// per-reference weights and Euclidean norms precomputed, so matching a
// candidate costs one frequency conversion per candidate class plus one
// dot product per (class, reference) pair — no allocation, no repeated
// normalisation of immutable reference data. Results are bit-identical
// to the naive per-pair Similarity path: the same values flow through
// the same floating-point operations in the same order.
//
// A CompiledDB is safe for concurrent use; each goroutine needs its own
// MatchScratch for the zero-allocation entry points.
type CompiledDB struct {
	cfg     Config
	measure Measure
	addrs   []dot11.Addr
	index   map[dot11.Addr]int // addr → position in addrs
	totals  []uint64           // per reference: observation total at compile time
	bins    int
	classes [dot11.NumClasses]compiledClass
	idx     *matchIndex // sparse match index (see index.go); nil on the dense path

	scratch sync.Pool // *MatchScratch, for the scratchless conveniences
}

// compiledClass is the frozen per-frame-class reference data. For
// cosine — scale-invariant, so it can skip the frequency conversion —
// rows hold the raw counts pre-converted to float64 (exact: counts are
// far below 2^53), keeping the inner loop a pure float dot product
// while staying bit-identical to the count-domain CosineCounts kernel.
// The other measures freeze frequency rows.
type compiledClass struct {
	present bool      // at least one reference carries this class
	has     []bool    // per reference: class present in its signature
	rows    []float64 // N×bins row-major matrix: float64 counts (cosine) or frequencies; nil when indexed
	norms   []float64 // per reference: Euclidean norm of its count row (cosine only)
	weights []float64 // per reference: weight^ftype (Definition 1)
}

// MatchScratch holds the reusable buffers of the zero-allocation match
// path. The zero value is ready to use; buffers grow on first use and
// are retained across calls. A scratch must not be shared between
// concurrent MatchInto calls.
type MatchScratch struct {
	freqs  []float64
	scores []Score
	l1nz   []int32      // candidate support scratch for the indexed L1 kernel
	search *searchState // pruned-search buffers, allocated on first TopK/Best/Above
}

// Compile freezes the database's current references into a CompiledDB.
// The snapshot is cached: repeated calls return the same CompiledDB
// until the reference set changes. Staleness is detected by comparing
// per-reference observation totals (every matching-relevant signature
// mutation — Add, Train, or mutating a signature obtained from
// Signature — grows some histogram count and with it the total), so
// the check costs O(N) instead of a recompile.
func (db *Database) Compile() *CompiledDB {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.compiled == nil || !db.compiled.fresh(db) {
		db.compiled = compile(db)
	}
	return db.compiled
}

// fresh reports whether the snapshot still reflects the live references.
func (c *CompiledDB) fresh(db *Database) bool {
	if len(c.addrs) != len(db.order) {
		return false
	}
	for r, addr := range c.addrs {
		if db.refs[addr].total != c.totals[r] {
			return false
		}
	}
	return true
}

// compile builds the frozen matrices from the live reference map. When
// the database's IndexMode selects indexing (explicitly, or automatically
// at indexAutoMin references), the dense row matrices are not built at
// all: the sparse index carries the same values and the indexed kernels
// reproduce the dense results bit for bit at a fraction of the memory.
func compile(db *Database) *CompiledDB {
	n := len(db.order)
	cosine := db.measure.isCosine()
	indexed := db.indexing == IndexOn || (db.indexing == IndexAuto && n >= indexAutoMin)
	c := &CompiledDB{
		cfg:     db.cfg,
		measure: db.measure,
		addrs:   make([]dot11.Addr, n),
		index:   make(map[dot11.Addr]int, n),
		totals:  make([]uint64, n),
		bins:    db.cfg.Bins.Bins,
	}
	copy(c.addrs, db.order)
	for r, addr := range c.addrs {
		c.index[addr] = r
		c.totals[r] = db.refs[addr].total
	}
	for ci := range c.classes {
		class := dot11.Class(ci)
		cc := &c.classes[ci]
		for r, addr := range db.order {
			sig := db.refs[addr]
			h := sig.Hist(class)
			if h == nil {
				continue
			}
			if !cc.present {
				cc.present = true
				cc.has = make([]bool, n)
				cc.weights = make([]float64, n)
				if !indexed {
					cc.rows = make([]float64, n*c.bins)
				}
				if cosine {
					cc.norms = make([]float64, n)
				}
			}
			cc.has[r] = true
			cc.weights[r] = sig.Weight(class)
			if cosine {
				cc.norms[r] = histogram.CountNorm(h.CountsView())
			}
			if indexed {
				continue
			}
			row := cc.rows[r*c.bins : (r+1)*c.bins]
			if cosine {
				for i, v := range h.CountsView() {
					row[i] = float64(v)
				}
			} else {
				h.AppendFreqs(row[:0:c.bins])
			}
		}
	}
	if indexed {
		c.idx = buildIndex(db, c)
	}
	return c
}

// Config returns the extraction configuration the database was built with.
func (c *CompiledDB) Config() Config { return c.cfg }

// Measure returns the similarity measure in use.
func (c *CompiledDB) Measure() Measure { return c.measure }

// Len returns the number of reference devices.
func (c *CompiledDB) Len() int { return len(c.addrs) }

// Devices returns the reference addresses in insertion order.
func (c *CompiledDB) Devices() []dot11.Addr {
	out := make([]dot11.Addr, len(c.addrs))
	copy(out, c.addrs)
	return out
}

// MatchInto computes the similarity vector of a candidate against every
// reference (Algorithm 1, insertion order) into the scratch buffers and
// returns a slice aliasing scratch.scores. It performs no allocation
// once the scratch has warmed up; the result is only valid until the
// scratch's next use.
//
//fp:hotpath test=TestMatchIntoZeroAlloc
func (c *CompiledDB) MatchInto(candidate *Signature, scratch *MatchScratch) []Score {
	n := len(c.addrs)
	if cap(scratch.scores) < n {
		scratch.scores = make([]Score, n)
	}
	if c.idx != nil {
		return c.matchIndexed(candidate, scratch)
	}
	scores := scratch.scores[:n]
	for r, addr := range c.addrs {
		scores[r] = Score{Addr: addr}
	}
	if candidate == nil {
		return scores
	}
	// Ascending class order mirrors Signature.Classes(), so every
	// reference accumulates its per-class contributions in the same
	// order as the naive Similarity loop.
	for ci := range c.classes {
		cc := &c.classes[ci]
		if !cc.present {
			continue
		}
		ch := candidate.Hist(dot11.Class(ci))
		if ch == nil || ch.Bins() != c.bins {
			// Absent from the candidate, or a shape mismatch on which
			// every similarity measure evaluates to zero.
			continue
		}
		switch c.measure {
		case MeasureIntersection, MeasureBhattacharyya, MeasureL1:
			cf := ch.AppendFreqs(scratch.freqs[:0])
			scratch.freqs = cf // keep the grown buffer for the next class
			c.accumulate(scores, cc, cf, c.measure.fn())
		default:
			// Count domain, like the naive cosine path. The candidate
			// counts are converted to float64 once (exact, so the bits
			// cannot differ from converting inside the dot product) and
			// the candidate norm is hoisted out of the reference loop.
			cf := scratch.freqs[:0]
			for _, v := range ch.CountsView() {
				cf = append(cf, float64(v))
			}
			scratch.freqs = cf
			cn := histogram.CountNorm(ch.CountsView())
			for r := range c.addrs {
				if !cc.has[r] {
					continue
				}
				row := cc.rows[r*c.bins : (r+1)*c.bins]
				scores[r].Sim += cc.weights[r] * histogram.CosineNormed(cf, row, cn, cc.norms[r])
			}
		}
	}
	return scores
}

// accumulate applies a generic frequency-domain measure across every
// reference row that carries the class.
func (c *CompiledDB) accumulate(scores []Score, cc *compiledClass, cf []float64, f func(a, b []float64) float64) {
	for r := range scores {
		if !cc.has[r] {
			continue
		}
		scores[r].Sim += cc.weights[r] * f(cf, cc.rows[r*c.bins:(r+1)*c.bins])
	}
}

// getScratch pops a pooled scratch for the scratchless conveniences.
func (c *CompiledDB) getScratch() *MatchScratch {
	if s, ok := c.scratch.Get().(*MatchScratch); ok {
		return s
	}
	return &MatchScratch{}
}

// Match computes the similarity vector into a freshly allocated slice.
func (c *CompiledDB) Match(candidate *Signature) []Score {
	return c.MatchAppend(candidate, make([]Score, 0, len(c.addrs)))
}

// MatchAppend appends the similarity vector to dst and returns the
// extended slice — the allocation-free form of Match for callers that
// reuse a result buffer across windows (append-style, like
// histogram.AppendFreqs). It routes through the pooled scratch, so a
// warmed dst[:0] with capacity ≥ Len() makes the call allocation-free
// only while the pool holds a scratch: a sync.Pool may drop its
// entries at any garbage collection (and, under the race detector, at
// random Puts), and every miss allocates a fresh scratch. Callers that
// need a hard zero-allocation guarantee own a MatchScratch and call
// MatchInto.
func (c *CompiledDB) MatchAppend(candidate *Signature, dst []Score) []Score {
	s := c.getScratch()
	dst = append(dst, c.MatchInto(candidate, s)...)
	c.scratch.Put(s)
	return dst
}

// Best returns the arg-max reference for the identification test, with
// ok=false for an empty database. With the index enabled this is a
// pruned top-1 search; the result is bit-identical to the full scan.
func (c *CompiledDB) Best(candidate *Signature) (Score, bool) {
	s := c.getScratch()
	defer c.scratch.Put(s)
	if c.idx != nil {
		top := c.topKIndexed(candidate, 1, s.ensureSearch(len(c.addrs)))
		if len(top) == 0 {
			return Score{Sim: -1}, false
		}
		best := Score{Addr: c.addrs[top[0].ref], Sim: top[0].sim}
		return best, best.Sim >= 0
	}
	best := Score{Sim: -1}
	for _, sc := range c.MatchInto(candidate, s) {
		if sc.Sim > best.Sim {
			best = sc
		}
	}
	return best, best.Sim >= 0
}

// Above returns the references whose similarity is at least the
// threshold — the similarity test's returned set, in insertion order.
// A positive threshold with the index enabled takes the pruned walk;
// the returned set, order and scores are bit-identical either way.
func (c *CompiledDB) Above(candidate *Signature, threshold float64) []Score {
	s := c.getScratch()
	defer c.scratch.Put(s)
	if c.idx != nil && threshold > 0 {
		return c.aboveIndexed(candidate, threshold, s.ensureSearch(len(c.addrs)))
	}
	var out []Score
	for _, sc := range c.MatchInto(candidate, s) {
		if sc.Sim >= threshold {
			out = append(out, sc)
		}
	}
	return out
}

// TopKInto returns the k best-matching references ranked by similarity
// (ties broken toward the earlier insertion index — the same reference
// Best would pick), writing into the scratch's buffers; the result is
// only valid until the scratch's next use. With the index enabled the
// search is pruned; scores, order and ties are bit-identical to ranking
// the exhaustive similarity vector. k is clamped to Len(); k <= 0
// returns nil.
func (c *CompiledDB) TopKInto(candidate *Signature, k int, scratch *MatchScratch) []Score {
	n := len(c.addrs)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	st := scratch.ensureSearch(n)
	var top []topEntry
	if c.idx != nil {
		top = c.topKIndexed(candidate, k, st)
	} else {
		st.top = st.top[:0]
		for r, sc := range c.MatchInto(candidate, scratch) {
			st.top, _ = offerTop(st.top, k, sc.Sim, int32(r))
		}
		top = st.top
	}
	out := st.out[:0]
	for _, e := range top {
		out = append(out, Score{Addr: c.addrs[e.ref], Sim: e.sim})
	}
	st.out = out
	return out
}

// TopK is the allocating convenience form of TopKInto.
func (c *CompiledDB) TopK(candidate *Signature, k int) []Score {
	s := c.getScratch()
	defer c.scratch.Put(s)
	res := c.TopKInto(candidate, k, s)
	if res == nil {
		return nil
	}
	out := make([]Score, len(res))
	copy(out, res)
	return out
}

// IndexStats describes the snapshot's match index; Enabled is false on
// the dense path, where DenseBytes reports the matrices actually held.
func (c *CompiledDB) IndexStats() IndexStats {
	if c.idx != nil {
		return c.idx.stats
	}
	st := IndexStats{References: len(c.addrs)}
	for ci := range c.classes {
		if c.classes[ci].present {
			st.DenseBytes += int64(len(c.addrs)) * int64(c.bins) * 8
		}
	}
	return st
}

// MatchAll matches a batch of candidates, fanning the work out across
// GOMAXPROCS workers. Row i of the result is exactly Match(cands[i].Sig)
// — worker scheduling cannot affect the output, because every row is
// computed independently and written at its own index. All rows share
// one backing allocation.
func (c *CompiledDB) MatchAll(cands []Candidate) [][]Score {
	return c.MatchAllWorkers(cands, 0)
}

// MatchAllWorkers is MatchAll with an explicit worker cap (0 selects
// GOMAXPROCS, 1 forces the serial path). Results are identical for
// every worker count.
func (c *CompiledDB) MatchAllWorkers(cands []Candidate, workers int) [][]Score {
	out := make([][]Score, len(cands))
	if len(cands) == 0 {
		return out
	}
	backing := make([]Score, len(cands)*len(c.addrs))
	ForEachIndex(len(cands), workers, func(scratch *MatchScratch, i int) {
		row := backing[i*len(c.addrs) : (i+1)*len(c.addrs) : (i+1)*len(c.addrs)]
		copy(row, c.MatchInto(cands[i].Sig, scratch))
		out[i] = row
	})
	return out
}

// ForEachIndex runs fn(scratch, i) for every i in [0, n) across the
// given number of workers (0 ⇒ GOMAXPROCS, 1 ⇒ inline serial). Each
// worker owns one MatchScratch, so fn can use the zero-allocation
// matching entry points directly. Every index is processed exactly once
// and independently; as long as fn's writes are index-disjoint, the
// aggregate effect is identical for any worker count — the fan-out
// changes wall-clock time, never results.
func ForEachIndex(n, workers int, fn func(scratch *MatchScratch, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var scratch MatchScratch
		for i := 0; i < n; i++ {
			fn(&scratch, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch MatchScratch
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(&scratch, i)
			}
		}()
	}
	wg.Wait()
}
