package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dot11fp/internal/dot11"
)

// The index property: every match entry point with the index enabled is
// bit-identical — scores, order and ties — to the exhaustive dense
// path. These tests build the same reference set twice (IndexOff vs
// IndexOn) and compare results with math.Float64bits, across all four
// measures, random sparse databases, planted exact ties, disjoint
// supports, and an adversarial candidate whose true best hides behind
// the most common bin.

var allMeasures = []Measure{MeasureCosine, MeasureIntersection, MeasureBhattacharyya, MeasureL1}

var propClasses = []dot11.Class{dot11.ClassData, dot11.ClassQoSData, dot11.ClassNull, dot11.ClassBeacon}

// randSig builds a random sparse signature over nbins: a random subset
// of classes, each with a few random bins, occasionally empty-ish.
func randSig(rng *rand.Rand, spec BinSpec) *Signature {
	sig := NewSignature(ParamInterArrival, spec)
	for _, class := range propClasses {
		if rng.Intn(3) == 0 {
			continue
		}
		nnz := 1 + rng.Intn(6)
		for j := 0; j < nnz; j++ {
			synthAdd(sig, class, rng.Intn(spec.Bins), 1+rng.Intn(5))
		}
	}
	return sig
}

// buildPair adds identical references to an exhaustive and an indexed
// database and returns their compiled snapshots.
func buildPair(t *testing.T, measure Measure, sigs []*Signature) (exh, idx *CompiledDB) {
	t.Helper()
	spec := BinSpec{Width: synthWidth, Bins: 64}
	cfg := Config{Param: ParamInterArrival, Bins: spec, MinObservations: 1}
	dbE := NewDatabase(cfg, measure)
	dbE.SetIndexing(IndexOff)
	dbI := NewDatabase(cfg, measure)
	dbI.SetIndexing(IndexOn)
	for i, sig := range sigs {
		if err := dbE.Add(synthAddr(i), sig.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := dbI.Add(synthAddr(i), sig.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	exh, idx = dbE.Compile(), dbI.Compile()
	if idx.IndexStats().Enabled == (len(sigs) == 0) {
		t.Fatalf("index enabled = %v for %d refs", idx.IndexStats().Enabled, len(sigs))
	}
	return exh, idx
}

func sameScores(t *testing.T, label string, want, got []Score) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Addr != got[i].Addr || math.Float64bits(want[i].Sim) != math.Float64bits(got[i].Sim) {
			t.Fatalf("%s[%d]: got %v/%x, want %v/%x", label, i,
				got[i].Addr, math.Float64bits(got[i].Sim),
				want[i].Addr, math.Float64bits(want[i].Sim))
		}
	}
}

// exhaustiveTopK ranks a full similarity vector independently of the
// production code: stable sort by (Sim desc, insertion index asc).
func exhaustiveTopK(scores []Score, k int) []Score {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]].Sim != scores[idx[b]].Sim {
			return scores[idx[a]].Sim > scores[idx[b]].Sim
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]Score, k)
	for i := 0; i < k; i++ {
		out[i] = scores[idx[i]]
	}
	return out
}

func TestIndexBitIdentical(t *testing.T) {
	for _, measure := range allMeasures {
		measure := measure
		t.Run(measure.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				spec := BinSpec{Width: synthWidth, Bins: 64}
				n := 40 + rng.Intn(80)
				sigs := make([]*Signature, 0, n+2)
				for i := 0; i < n; i++ {
					sigs = append(sigs, randSig(rng, spec))
				}
				// Planted exact ties: two clones of an existing reference.
				sigs = append(sigs, sigs[7].Clone(), sigs[7].Clone())
				exh, idx := buildPair(t, measure, sigs)

				var scratch MatchScratch
				for trial := 0; trial < 12; trial++ {
					var cand *Signature
					switch trial {
					case 0:
						cand = sigs[7].Clone() // exact triple tie at the top
					case 1:
						cand = nil
					case 2:
						cand = NewSignature(ParamInterArrival, spec) // empty
					default:
						cand = randSig(rng, spec)
					}
					want := exh.Match(cand)
					got := idx.Match(cand)
					sameScores(t, "Match", want, got)

					wb, wok := exh.Best(cand)
					gb, gok := idx.Best(cand)
					if wok != gok || wb.Addr != gb.Addr || math.Float64bits(wb.Sim) != math.Float64bits(gb.Sim) {
						t.Fatalf("Best: got %v/%x/%v, want %v/%x/%v",
							gb.Addr, math.Float64bits(gb.Sim), gok, wb.Addr, math.Float64bits(wb.Sim), wok)
					}

					for _, k := range []int{1, 2, 5, len(sigs), len(sigs) + 3} {
						sameScores(t, "TopK(ranked)", exhaustiveTopK(want, k), idx.TopKInto(cand, k, &scratch))
						sameScores(t, "TopK(dense)", exh.TopK(cand, k), idx.TopK(cand, k))
					}

					// Thresholds at exact score values hit the tie edge.
					thresholds := []float64{-0.5, 0, 1e-9, 0.3, 0.99, 1.5}
					for _, sc := range want[:min(4, len(want))] {
						thresholds = append(thresholds, sc.Sim)
					}
					for _, th := range thresholds {
						sameScores(t, "Above", exh.Above(cand, th), idx.Above(cand, th))
					}
				}
			}
		})
	}
}

// TestIndexAdversarialCommonBin hides the true best match behind the
// candidate's most common bin: every reference shares bin 0 (a huge
// posting, walked last), and only the winner's entire mass sits there.
// A prefilter with unsound bounds would stop after the rare bins and
// return the decoy; the MaxScore walk must keep bin 0 alive because its
// term bound stays above the decoy's score.
func TestIndexAdversarialCommonBin(t *testing.T) {
	for _, measure := range allMeasures {
		spec := BinSpec{Width: synthWidth, Bins: 64}
		n := 300 // above indexAutoMin, so IndexAuto also applies
		sigs := make([]*Signature, n)
		rng := rand.New(rand.NewSource(9))
		for i := range sigs {
			sig := NewSignature(ParamInterArrival, spec)
			synthAdd(sig, dot11.ClassData, 0, 1) // the universal bin
			synthAdd(sig, dot11.ClassData, 1+rng.Intn(62), 8)
			sigs[i] = sig
		}
		// The winner: all mass on the universal bin.
		winner := NewSignature(ParamInterArrival, spec)
		synthAdd(winner, dot11.ClassData, 0, 9)
		sigs[n-1] = winner
		// The decoy shares the candidate's rare bin 63 with minor mass.
		decoy := NewSignature(ParamInterArrival, spec)
		synthAdd(decoy, dot11.ClassData, 0, 1)
		synthAdd(decoy, dot11.ClassData, 63, 8)
		sigs[n-2] = decoy

		cand := NewSignature(ParamInterArrival, spec)
		synthAdd(cand, dot11.ClassData, 0, 30)
		synthAdd(cand, dot11.ClassData, 63, 1)

		exh, idx := buildPair(t, measure, sigs)
		wb, _ := exh.Best(cand)
		if wb.Addr != synthAddr(n-1) {
			t.Fatalf("%v: scenario broken: exhaustive best is %v, want the common-bin winner %v",
				measure, wb.Addr, synthAddr(n-1))
		}
		gb, gok := idx.Best(cand)
		if !gok || gb.Addr != wb.Addr || math.Float64bits(gb.Sim) != math.Float64bits(wb.Sim) {
			t.Fatalf("%v: indexed best %v/%x, want %v/%x",
				measure, gb.Addr, math.Float64bits(gb.Sim), wb.Addr, math.Float64bits(wb.Sim))
		}
		var scratch MatchScratch
		sameScores(t, "TopK", exhaustiveTopK(exh.Match(cand), 5), idx.TopKInto(cand, 5, &scratch))
	}
}

// TestIndexDisjointL1 pins the subtle L1 case: a reference sharing a
// class but no bins has a similarity near — but not exactly — zero
// (frequency rounding), which bin-overlap shortlists would silently
// replace with 0. The class-overlap walk must reproduce it bit for bit.
func TestIndexDisjointL1(t *testing.T) {
	spec := BinSpec{Width: synthWidth, Bins: 64}
	sigs := make([]*Signature, 280)
	for i := range sigs {
		// Three equal thirds: the frequencies sum to 0.9999999999999999,
		// so a disjoint distance misses exact 2 by one ulp.
		sig := NewSignature(ParamInterArrival, spec)
		synthAdd(sig, dot11.ClassData, i%29, 1)
		synthAdd(sig, dot11.ClassData, 29+(i%15), 1)
		synthAdd(sig, dot11.ClassData, 44+(i%13), 1)
		sigs[i] = sig
	}
	cand := NewSignature(ParamInterArrival, spec)
	synthAdd(cand, dot11.ClassData, 60, 1)
	synthAdd(cand, dot11.ClassData, 61, 1)
	synthAdd(cand, dot11.ClassData, 62, 1)

	exh, idx := buildPair(t, MeasureL1, sigs)
	want := exh.Match(cand)
	nonzero := 0
	for _, sc := range want {
		if sc.Sim != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("scenario broken: expected disjoint L1 scores off exact zero")
	}
	sameScores(t, "Match", want, idx.Match(cand))
	gb, _ := idx.Best(cand)
	wb, _ := exh.Best(cand)
	if wb.Addr != gb.Addr || math.Float64bits(wb.Sim) != math.Float64bits(gb.Sim) {
		t.Fatalf("Best: got %v/%x, want %v/%x", gb.Addr, math.Float64bits(gb.Sim), wb.Addr, math.Float64bits(wb.Sim))
	}
}

// TestIndexAuto pins the auto threshold and the opt-out.
func TestIndexAuto(t *testing.T) {
	spec := BinSpec{Width: synthWidth, Bins: 64}
	cfg := Config{Param: ParamInterArrival, Bins: spec, MinObservations: 1}
	rng := rand.New(rand.NewSource(3))
	db := NewDatabase(cfg, MeasureCosine)
	for i := 0; i < indexAutoMin-1; i++ {
		if err := db.Add(synthAddr(i), randSig(rng, spec)); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.IndexStats(); st.Enabled {
		t.Fatalf("index built below the auto threshold: %+v", st)
	}
	if err := db.Add(synthAddr(indexAutoMin), randSig(rng, spec)); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexStats(); !st.Enabled {
		t.Fatalf("index not built at the auto threshold: %+v", st)
	}
	db.SetIndexing(IndexOff)
	if st := db.IndexStats(); st.Enabled {
		t.Fatalf("IndexOff still built the index: %+v", st)
	}
	clone := db.Clone()
	if clone.Indexing() != IndexOff {
		t.Fatalf("Clone dropped the index mode: %v", clone.Indexing())
	}
}

// TestTopKBatchConsistent pins the batch top-k entry points the engines
// use — a single database runs as an ensemble of one — against the
// database's one-shot path for every worker count.
func TestTopKBatchConsistent(t *testing.T) {
	db, cands := synthDB(600, 12, MeasureCosine, IndexOn)
	c := db.Compile()
	ce := EnsembleOf(c)
	mcands := make([]MultiCandidate, len(cands))
	want := make([][]Score, len(cands))
	for i := range cands {
		want[i] = c.TopK(cands[i].Sig, 4)
		mcands[i] = MultiCandidate{Addr: cands[i].Addr, Sigs: []*Signature{cands[i].Sig}}
	}
	var scratch EnsembleScratch
	got := ce.TopKAllScratch(mcands, 4, &scratch)
	for i := range want {
		sameScores(t, "TopKAllScratch", want[i], got[i])
	}
	for _, workers := range []int{1, 3, 8} {
		got := ce.TopKAllWorkers(mcands, 4, workers)
		for i := range want {
			sameScores(t, "TopKAllWorkers", want[i], got[i])
		}
	}
}

// TestMatchAppendReuse pins the allocation contract of the append-style
// convenience entry point.
func TestMatchAppendReuse(t *testing.T) {
	db, cands := synthDB(300, 2, MeasureCosine, IndexOn)
	c := db.Compile()
	want := c.Match(cands[0].Sig)
	dst := c.MatchAppend(cands[0].Sig, nil)
	sameScores(t, "MatchAppend(nil)", want, dst)
	dst = c.MatchAppend(cands[0].Sig, dst[:0])
	sameScores(t, "MatchAppend(reuse)", want, dst)
	allocs := testing.AllocsPerRun(20, func() {
		dst = c.MatchAppend(cands[0].Sig, dst[:0])
	})
	// The race detector drops a random share of sync.Pool Puts, so the
	// pooled scratch is re-allocated on some calls; only the allocation
	// count depends on the pool, the scores above are checked regardless.
	if allocs != 0 && !raceEnabled {
		t.Fatalf("MatchAppend with warm buffer: %.1f allocs/op, want 0", allocs)
	}
}
