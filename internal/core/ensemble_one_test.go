package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// randParamSig builds a random sparse signature in cfg's parameter and
// bin shape: a random subset of classes, each with a few random bins.
func randParamSig(rng *rand.Rand, cfg Config) *Signature {
	sig := NewSignature(cfg.Param, cfg.Bins)
	for _, class := range propClasses {
		if rng.Intn(3) == 0 {
			continue
		}
		h := &sig.hists[class]
		if h.Bins() == 0 {
			h.Init(sig.bins.Bins, sig.bins.Width)
			sig.nhist++
		}
		for j := 1 + rng.Intn(6); j > 0; j-- {
			before := h.Total()
			h.AddN((float64(rng.Intn(sig.bins.Bins))+0.5)*sig.bins.Width, uint64(1+rng.Intn(5)))
			sig.total += h.Total() - before
		}
	}
	return sig
}

// TestEnsembleOfOneEqualsMember pins the invariant the engines rely on
// to run single-parameter fingerprinting as an ensemble of one: a
// one-member CompiledEnsemble's Match, MatchAll, TopK and Best equal the
// member CompiledDB's output bit for bit — scores compared through
// math.Float64bits, so even a signed-zero flip fails — for every
// parameter, every measure, indexed and exhaustive.
func TestEnsembleOfOneEqualsMember(t *testing.T) {
	t.Parallel()
	for p := ParamRate; p <= ParamProbeSSID; p++ {
		for _, measure := range allMeasures {
			for _, mode := range []IndexMode{IndexOff, IndexOn} {
				rng := rand.New(rand.NewSource(int64(p)*31 + int64(measure)))
				cfg := DefaultConfig(p)
				db := NewDatabase(cfg, measure)
				db.SetIndexing(mode)
				for i := 0; i < 60; i++ {
					if err := db.Add(synthAddr(i), randParamSig(rng, cfg)); err != nil {
						t.Fatal(err)
					}
				}
				cdb := db.Compile()
				ce := EnsembleOf(cdb)
				label := p.ShortName() + "/" + measure.String()
				if mode == IndexOn {
					label += "/indexed"
				}
				if got := ce.IndexStats(); got != cdb.IndexStats() {
					t.Fatalf("%s: index stats %+v, want %+v", label, got, cdb.IndexStats())
				}
				var cands []Candidate
				var mcands []MultiCandidate
				for i := 0; i < 12; i++ {
					sig := randParamSig(rng, cfg)
					cands = append(cands, Candidate{Addr: synthAddr(1000 + i), Sig: sig})
					mcands = append(mcands, MultiCandidate{Addr: synthAddr(1000 + i), Sigs: []*Signature{sig}})
				}
				for i, c := range cands {
					fused, perParam := ce.Match(mcands[i])
					want := cdb.Match(c.Sig)
					sameScores(t, label+" Match", want, fused)
					sameScores(t, label+" Match member", want, perParam[0])
					for _, k := range []int{1, 5, 60} {
						sameScores(t, label+" TopK", cdb.TopK(c.Sig, k), ce.TopK(mcands[i], k))
					}
					wantBest, wantOK := cdb.Best(c.Sig)
					gotBest, gotOK := ce.Best(mcands[i])
					sameScores(t, label+" Best", []Score{wantBest}, []Score{gotBest})
					if gotOK != wantOK {
						t.Fatalf("%s Best ok = %v, want %v", label, gotOK, wantOK)
					}
				}
				wantAll := cdb.MatchAll(cands)
				gotAll, gotPer := ce.MatchAll(mcands)
				for i := range wantAll {
					sameScores(t, label+" MatchAll", wantAll[i], gotAll[i])
					sameScores(t, label+" MatchAll member", wantAll[i], gotPer[i][0])
				}
			}
		}
	}
	if EnsembleOf(nil) != nil {
		t.Fatal("EnsembleOf(nil) is not nil")
	}
}

// FuzzLoadBinaryEnsemble hardens the ensemble checkpoint container: any
// input either fails with a typed error or loads as an ensemble whose
// canonical re-save is a fixpoint of save → load → save.
func FuzzLoadBinaryEnsemble(f *testing.F) {
	tr := ensembleTrace()
	for _, cfgs := range [][]Config{
		{{Param: ParamSize}},
		{{Param: ParamSize}, {Param: ParamRate}, {Param: ParamInterArrival}},
	} {
		e, err := NewEnsemble(MeasureCosine, cfgs...)
		if err != nil {
			f.Fatal(err)
		}
		if err := e.Train(tr); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.SaveBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	}
	f.Add([]byte("D11FPENS\x01\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadBinaryEnsemble(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBinaryDatabase) && !errors.Is(err, ErrBinaryVersion) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := loaded.SaveBinary(&first); err != nil {
			t.Fatalf("re-saving an accepted ensemble: %v", err)
		}
		again, err := LoadBinaryEnsemble(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-loading a canonical save: %v", err)
		}
		var second bytes.Buffer
		if err := again.SaveBinary(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("canonical form is not a fixpoint")
		}
		// An accepted ensemble must be matchable without panicking.
		loaded.Compile().MatchAll(loaded.CandidatesIn(tr, 5*time.Minute))
	})
}
