package core

import (
	"time"

	"dot11fp/internal/capture"
)

// DefaultWindow is the paper's detection window size (§V-A).
const DefaultWindow = 5 * time.Minute

// Split divides a trace into the training prefix (the reference trace)
// and the validation remainder, at refDur from the trace start. The cut
// is anchored at the first record's timestamp, not at absolute zero, so
// traces carrying wall-clock timestamps (every real pcap) split exactly
// like ones rebased to zero.
func Split(tr *capture.Trace, refDur time.Duration) (train, validation *capture.Trace) {
	cut := refDur.Microseconds()
	if len(tr.Records) > 0 {
		cut += tr.Records[0].T
	}
	return tr.Slice(-1<<62, cut), tr.Slice(cut, 1<<62)
}

// Windows partitions a trace into consecutive detection windows of the
// given size, anchored at the trace's first record. Empty windows are
// skipped. A non-positive window yields the whole trace as one window.
func Windows(tr *capture.Trace, window time.Duration) []*capture.Trace {
	if len(tr.Records) == 0 {
		return nil
	}
	w := window.Microseconds()
	if w <= 0 {
		return []*capture.Trace{tr}
	}
	start := tr.Records[0].T
	end := tr.Records[len(tr.Records)-1].T
	var out []*capture.Trace
	for t := start; t <= end; t += w {
		s := tr.Slice(t, t+w)
		if len(s.Records) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// Candidate is one device observed in one detection window.
type Candidate struct {
	Addr   [6]byte // dot11.Addr; kept comparable for map keys
	Window int
	Sig    *Signature
}

// CandidatesIn extracts the candidate signatures of every detection
// window (the matching unit of §V-A: every candidate device is matched
// against the reference database for each detection window).
//
// It is a thin batch adapter over WindowAccumulator — the single
// extraction code path shared with the streaming engine. The trace is
// scanned in one pass; output is identical to windowing first: window
// indices count non-empty windows in time order, the inter-arrival
// context resets at each window boundary (mirroring per-window
// extraction), and candidates within a window are emitted in ascending
// address order after the minimum-observation rule.
func CandidatesIn(validation *capture.Trace, window time.Duration, cfg Config) []Candidate {
	var out []Candidate
	acc := NewWindowAccumulator(window, cfg, func(w *WindowResult) {
		for _, c := range w.Candidates {
			out = append(out, Candidate{Addr: c.Addr, Window: c.Window, Sig: c.Sigs[0]})
		}
	})
	for i := range validation.Records {
		acc.Push(&validation.Records[i])
	}
	acc.Flush()
	return out
}
