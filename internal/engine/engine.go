// Package engine is the streaming-first form of the paper's method: a
// push-based fingerprinting pipeline for live monitor feeds.
//
// The paper's detection loop is inherently online — a passive monitor
// watches frames arrive and re-identifies every candidate device once
// per 5-minute detection window (§V-A). The engine implements exactly
// that loop without ever materialising a trace: each pushed record
// updates the current window's per-sender signature accumulation in a
// core.SenderTable (the table the batch core.WindowAccumulator runs on,
// which stays the reference oracle the engine is tested against); when
// a record crosses a window boundary the closed window's candidates are
// matched against the compiled reference database and typed events are
// emitted to the caller's sink. Memory is O(live senders + references),
// independent of stream length, and the push path is allocation-free
// at steady state.
//
// There is one engine type, Sharded. New and NewEnsemble build its
// goroutine-free one-shard mode (named Engine), which delivers every
// event on the pushing goroutine; NewSharded and NewShardedEnsemble
// build the shard-per-core mode behind queues and a merger. Both modes
// run the same router and the same window emission.
//
// The reference set is hot-swappable (SetEnsembleDB), so references can be
// retrained — e.g. from a fresher training window — without dropping
// the stream.
//
// The event stream is bit-identical by contract — the same records
// yield the same events on every run and at every shard count; wall
// clock feeds only stats and supervision, never output (each read is
// annotated //fp:wallclock).
//
//fp:deterministic
package engine

import (
	"fmt"
	"time"

	"dot11fp/internal/core"
)

// Options parameterises an Engine.
type Options struct {
	// Window is the detection window size. Zero selects the paper's
	// 5 minutes (core.DefaultWindow); a negative value accumulates the
	// whole stream as a single window.
	Window time.Duration
	// Threshold is the identification acceptance threshold: a candidate
	// whose best similarity reaches it is emitted as CandidateMatched,
	// otherwise as UnknownDevice. The zero value accepts any best match
	// (all similarity measures are non-negative), i.e. pure arg-max
	// identification.
	Threshold float64
	// Workers caps the per-window matching fan-out, like eval.Spec:
	// 0 selects GOMAXPROCS, 1 forces the serial path. Results are
	// identical for every worker count.
	Workers int
	// TopK, when positive, trims the per-candidate verdict events to the
	// k best-matching references (ranked, ties toward the earlier
	// reference) instead of the full similarity vector. Verdicts and
	// Best are bit-identical to the full-vector run — the ranked row's
	// first entry is exactly the full scan's arg-max — while the match
	// cost becomes sublinear in the reference count once the database
	// index is enabled (see core.IndexMode). The events' ParamScores are
	// omitted (the fused pruned search never materialises the per-member
	// vectors). 0 keeps the full vector.
	TopK int
	// Limits bounds the per-window sender state (see core.SenderLimits).
	// The zero value is unbounded — bit-identical to the batch pipeline;
	// with bounds set, evicted senders surface as CandidateDropped
	// events with Evicted set and memory stays O(MaxSenders).
	Limits core.SenderLimits
	// Cluster, when set, merges randomized-MAC senders into logical
	// devices by probe-request content before sender-table admission
	// (see core.Clusterer). The engine owns the clusterer from then on:
	// it is driven from the push goroutine and must not be shared with
	// another live engine. nil — the default — disables clustering at
	// the cost of a single branch per frame.
	Cluster *core.Clusterer
	// Sink receives the engine's events; nil discards them (statistics
	// are still maintained).
	Sink Sink
	// Trainer, when set, closes the loop from the stream back into the
	// reference set: after each window's events the trainer accumulates
	// that window's candidates, promotes completed enrollments and
	// hot-swaps the engine's database, so the next window matches
	// against the grown reference set (see Trainer). The engine must
	// then be created with a nil db — the trainer owns the references
	// (seed a warm start with NewTrainerFrom).
	Trainer *Trainer
	// HealthSink receives supervision events (ComponentPanicked). On
	// the serial engine it is called on the pushing goroutine, but
	// never interleaved with the main event stream; it must not call
	// back into the engine. nil discards the events (Health still
	// counts everything).
	HealthSink Sink
}

// Stats is a point-in-time snapshot of an engine's counters.
//
// Snapshot semantics: the window-scoped counters — WindowsClosed,
// Candidates, Matched, Unknown, Dropped and Evicted — are updated as
// one group under a lock when a window's events have been emitted, so
// within any snapshot they are mutually consistent (Candidates is
// always Matched + Unknown, and all six describe the same set of
// closed windows). Frames and DroppedFrames are lock-free monotonic
// counters updated on the ingest path; they may run ahead of the
// window counters by the records still in flight (queued but not yet
// windowed, or in the currently open window). LiveSenders is an
// instantaneous gauge.
//
// The JSON field names are a stable API surface: the HTTP server and
// the /metrics encoder both serve this snapshot shape, so renaming a
// tag is a breaking change for API consumers (TestSnapshotJSONStable
// pins them).
type Stats struct {
	// Frames is the number of records pushed.
	Frames uint64 `json:"frames"`
	// DroppedFrames is the number of observations discarded by the
	// sharded engine's Drop backpressure policy. Always 0 for the
	// serial Engine.
	DroppedFrames uint64 `json:"dropped_frames"`
	// WindowsClosed is the number of detection windows emitted.
	WindowsClosed uint64 `json:"windows_closed"`
	// LiveSenders is the number of distinct senders with observations
	// in the currently open window (summed across shards).
	LiveSenders int `json:"live_senders"`
	// Candidates, Matched, Unknown and Dropped count the per-window
	// verdicts emitted so far; Candidates = Matched + Unknown in every
	// snapshot. Dropped counts below-minimum and evicted senders.
	Candidates uint64 `json:"candidates"`
	Matched    uint64 `json:"matched"`
	Unknown    uint64 `json:"unknown"`
	Dropped    uint64 `json:"dropped"`
	// Evicted counts the senders evicted under Options.Limits (a subset
	// of Dropped).
	Evicted uint64 `json:"evicted"`
	// Elapsed is the wall-clock time since the first push, in
	// nanoseconds on the wire; FramesPerSec is Frames over Elapsed.
	Elapsed      time.Duration `json:"elapsed_ns"`
	FramesPerSec float64       `json:"frames_per_sec"`
	// Index describes the installed database's compiled match index
	// (aggregated across members); Enabled false
	// means matching runs the dense exhaustive kernels.
	Index core.IndexStats `json:"index"`
}

// Engine is the name New and NewEnsemble return: Sharded in its
// goroutine-free one-shard mode, which observes into one sender table
// and emits each closed window on the pushing goroutine (see Sharded).
type Engine = Sharded

// New creates a single-parameter engine: NewEnsemble over the one
// configuration cfg, matching against db wrapped as an ensemble of one
// (nil runs extraction-only until SetEnsembleDB installs references).
func New(cfg core.Config, db *core.CompiledDB, opts Options) (*Engine, error) {
	return NewEnsemble([]core.Config{cfg}, core.EnsembleOf(db), opts)
}

// NewEnsemble creates an engine: every member parameter is extracted in
// one pass over the stream (one window clock, one shared inter-arrival
// context, one signature per member per sender) and each closed
// window's candidates are fuse-matched against edb (which may be nil to
// run extraction-only: every candidate is emitted as UnknownDevice
// until SetEnsembleDB installs one). Member configurations must carry
// distinct parameters; a non-nil edb must have been compiled from the
// same parameters and bin shapes. Verdict events carry the fused score
// vector plus the per-member vectors (Scores / ParamScores) and
// per-member signatures (Sigs). The engine starts no goroutine.
func NewEnsemble(cfgs []core.Config, edb *core.CompiledEnsemble, opts Options) (*Engine, error) {
	return newSharded(cfgs, edb, ShardedOptions{
		Window: opts.Window, Threshold: opts.Threshold, Sink: opts.Sink,
		Shards: 1, TopK: opts.TopK, Limits: opts.Limits, Cluster: opts.Cluster,
		Trainer: opts.Trainer, HealthSink: opts.HealthSink,
	}, true, opts.Workers)
}

// checkShape verifies a compiled ensemble was built from the engine's
// member parameters and bin shapes.
func checkShape(cfgs []core.Config, edb *core.CompiledEnsemble) error {
	if edb == nil {
		return nil
	}
	got := edb.Configs()
	if len(got) != len(cfgs) {
		return fmt.Errorf("engine: ensemble of %d members does not match engine's %d", len(got), len(cfgs))
	}
	for i := range cfgs {
		if got[i].Param != cfgs[i].Param || got[i].Bins != cfgs[i].Bins {
			return fmt.Errorf("engine: ensemble member %d shape %v/%v does not match engine %v/%v",
				i, got[i].Param, got[i].Bins, cfgs[i].Param, cfgs[i].Bins)
		}
	}
	return nil
}

// soleMember returns a one-member ensemble's member, else nil.
func soleMember(edb *core.CompiledEnsemble) *core.CompiledDB {
	if edb == nil {
		return nil
	}
	if m := edb.Members(); len(m) == 1 {
		return m[0]
	}
	return nil
}

// row returns rows[i], or nil when no rows were computed (no references
// installed, or a top-k run without per-member vectors).
func row[T any](rows []T, i int) T {
	var zero T
	if rows == nil {
		return zero
	}
	return rows[i]
}

// sinkEmit adapts a possibly-nil sink to the trainer's emit callback.
func sinkEmit(sink Sink) func(Event) {
	return func(ev Event) {
		if sink != nil {
			sink.HandleEvent(ev)
		}
	}
}
