package engine_test

import (
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
	"dot11fp/internal/scenario"
)

var (
	staA = dot11.LocalAddr(1)
	staB = dot11.LocalAddr(2)
	staC = dot11.LocalAddr(3)
	apX  = dot11.LocalAddr(1000)
)

// buildScenario synthesises a small office or conference trace.
func buildScenario(t testing.TB, conference bool) *capture.Trace {
	t.Helper()
	var p scenario.Params
	if conference {
		p = scenario.Conference("eng-conf", 42, 10*time.Minute, 12)
	} else {
		p = scenario.Office("eng-office", 41, 10*time.Minute, 10)
	}
	tr, _, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// edgeTrace exercises the window-boundary, min-observation and
// out-of-order/duplicate-timestamp corners in one hand-built capture.
func edgeTrace() *capture.Trace {
	tr := &capture.Trace{Name: "edges"}
	add := func(t int64, sender dot11.Addr, class dot11.Class, fcsOK bool) {
		tr.Records = append(tr.Records, capture.Record{
			T: t, Sender: sender, Receiver: apX, Class: class,
			Size: 300, RateMbps: 24, FCSOK: fcsOK,
		})
	}
	// Window 0: A dense, B sparse (below any reasonable minimum).
	for i := 0; i < 90; i++ {
		add(int64(i)*600_000, staA, dot11.ClassData, true)
	}
	add(10_000_000, staB, dot11.ClassData, true)
	add(10_000_000, staB, dot11.ClassData, true) // duplicate timestamp
	add(9_000_000, staB, dot11.ClassData, true)  // out of order within the window
	// Exactly on the 60 s boundary: must open window 1.
	add(60_000_000, staC, dot11.ClassQoSData, true)
	for i := 1; i < 80; i++ {
		add(60_000_000+int64(i)*700_000, staC, dot11.ClassQoSData, true)
	}
	// A corrupt frame and an unattributable ACK advance context only.
	add(100_000_000, staA, dot11.ClassData, false)
	add(100_000_500, dot11.ZeroAddr, dot11.ClassACK, true)
	// Out-of-order across the window boundary: jumps back to window 0's
	// bucket, which reopens a fresh window exactly like the batch path.
	add(30_000_000, staA, dot11.ClassData, true)
	for i := 0; i < 60; i++ {
		add(30_000_000+int64(i)*400_000, staA, dot11.ClassData, true)
	}
	return tr
}

// collected is the flattened event record used by the equivalence suite.
type collected struct {
	cands   []core.Candidate
	scores  [][]core.Score
	best    []core.Score
	dropped []engine.CandidateDropped
	closed  []engine.WindowClosed
}

// runEngine replays tr through a fresh engine one record at a time
// (each record copied to a local first, as a live driver would hand
// them over) and collects every event.
func runEngine(t *testing.T, tr *capture.Trace, db *core.CompiledDB, cfg core.Config, window time.Duration, workers int) *collected {
	t.Helper()
	got := &collected{}
	sink := engine.SinkFunc(func(ev engine.Event) {
		switch ev := ev.(type) {
		case engine.CandidateMatched:
			got.cands = append(got.cands, core.Candidate{Addr: [6]byte(ev.Addr), Window: ev.Window, Sig: ev.Sig})
			got.scores = append(got.scores, ev.Scores)
			got.best = append(got.best, ev.Best)
		case engine.UnknownDevice:
			got.cands = append(got.cands, core.Candidate{Addr: [6]byte(ev.Addr), Window: ev.Window, Sig: ev.Sig})
			got.scores = append(got.scores, ev.Scores)
			got.best = append(got.best, ev.Best)
		case engine.CandidateDropped:
			got.dropped = append(got.dropped, ev)
		case engine.WindowClosed:
			got.closed = append(got.closed, ev)
		}
	})
	eng, err := engine.New(cfg, db, engine.Options{Window: window, Workers: workers, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		rec := tr.Records[i]
		eng.Push(&rec)
	}
	eng.Close()
	return got
}

// sameSig asserts two signatures are observation-for-observation equal.
func sameSig(t *testing.T, label string, got, want *core.Signature) {
	t.Helper()
	if got.Observations() != want.Observations() {
		t.Fatalf("%s: %d observations, want %d", label, got.Observations(), want.Observations())
	}
	for _, class := range want.Classes() {
		wh, gh := want.Hist(class), got.Hist(class)
		if gh == nil {
			t.Fatalf("%s: class %v missing", label, class)
		}
		for b := 0; b < wh.Bins(); b++ {
			if wh.Count(b) != gh.Count(b) {
				t.Fatalf("%s class %v bin %d: %d, want %d", label, class, b, gh.Count(b), wh.Count(b))
			}
		}
	}
}

// TestEngineBitIdenticalToBatch is the redesign's acceptance test: the
// engine fed one record at a time produces exactly the candidates and
// scores of CandidatesIn + CompiledDB.MatchAll, on synthetic office and
// conference scenario traces and on the hand-built edge trace, across
// window sizes (including window-boundary records), minimum-observation
// settings, out-of-order and duplicate timestamps, and worker counts.
// The two sides share only the window clock and the sender table: the
// engine attributes through its router, CandidatesIn through
// core.WindowAccumulator, so this is a differential of the two.
func TestEngineBitIdenticalToBatch(t *testing.T) {
	t.Parallel()
	traces := map[string]*capture.Trace{
		"office": buildScenario(t, false),
		"conf":   buildScenario(t, true),
		"edges":  edgeTrace(),
	}
	type tc struct {
		window  time.Duration
		minObs  int
		param   core.Param
		workers int
	}
	cases := []tc{
		{2 * time.Minute, 0, core.ParamInterArrival, 1},
		{2 * time.Minute, 0, core.ParamInterArrival, 0},
		{time.Minute, 10, core.ParamSize, 0},
		{90 * time.Second, 25, core.ParamTxTime, 3},
		{-1, 10, core.ParamMediumAccess, 0}, // whole stream as one window
	}
	for name, tr := range traces {
		train, valid := core.Split(tr, 3*time.Minute)
		if name == "edges" {
			train, valid = tr, tr // tiny trace: train and monitor on the same records
		}
		for _, c := range cases {
			cfg := core.Config{Param: c.param, MinObservations: c.minObs}
			db := core.NewDatabase(cfg, core.MeasureCosine)
			if err := db.Train(train); err != nil {
				t.Fatal(err)
			}
			cdb := db.Compile()
			window := c.window
			if window < 0 {
				window = 0 // batch semantics: non-positive = whole trace
			}
			wantCands := core.CandidatesIn(valid, window, db.Config())
			wantScores := cdb.MatchAll(wantCands)

			got := runEngine(t, valid, cdb, cfg, c.window, c.workers)

			label := name + "/" + c.param.ShortName()
			if len(got.cands) != len(wantCands) {
				t.Fatalf("%s: %d candidates, want %d", label, len(got.cands), len(wantCands))
			}
			for i := range wantCands {
				if got.cands[i].Addr != wantCands[i].Addr || got.cands[i].Window != wantCands[i].Window {
					t.Fatalf("%s cand %d: got (%x, w%d), want (%x, w%d)", label, i,
						got.cands[i].Addr, got.cands[i].Window, wantCands[i].Addr, wantCands[i].Window)
				}
				sameSig(t, label, got.cands[i].Sig, wantCands[i].Sig)
				if len(got.scores[i]) != len(wantScores[i]) {
					t.Fatalf("%s cand %d: %d scores, want %d", label, i, len(got.scores[i]), len(wantScores[i]))
				}
				for j := range wantScores[i] {
					if got.scores[i][j] != wantScores[i][j] { // exact float equality: bit-identical
						t.Fatalf("%s cand %d score %d: %+v, want %+v", label, i, j,
							got.scores[i][j], wantScores[i][j])
					}
				}
				best := core.Score{Sim: -1}
				for _, sc := range wantScores[i] {
					if sc.Sim > best.Sim {
						best = sc
					}
				}
				if got.best[i] != best {
					t.Fatalf("%s cand %d best: %+v, want %+v", label, i, got.best[i], best)
				}
			}
			// Window summaries must be self-consistent with the events.
			var matched, unknown, dropped, cands int
			for _, w := range got.closed {
				matched += w.Matched
				unknown += w.Unknown
				dropped += w.Dropped
				cands += w.Candidates
			}
			if cands != len(got.cands) || matched+unknown != cands || dropped != len(got.dropped) {
				t.Fatalf("%s: inconsistent summaries: %d cands (%d events), %d+%d verdicts, %d dropped (%d events)",
					label, cands, len(got.cands), matched, unknown, dropped, len(got.dropped))
			}
		}
	}
}

// TestEngineMinObservationDrops checks that sparse senders surface as
// CandidateDropped with the effective minimum attached.
func TestEngineMinObservationDrops(t *testing.T) {
	t.Parallel()
	tr := edgeTrace()
	cfg := core.Config{Param: core.ParamSize, MinObservations: 50}
	got := runEngine(t, tr, nil, cfg, time.Minute, 1)
	found := false
	for _, d := range got.dropped {
		if d.Addr == staB {
			found = true
			if d.Observations == 0 || d.Observations >= 50 || d.Minimum != 50 {
				t.Fatalf("drop event = %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("sparse sender B never reported as dropped")
	}
}

// TestEngineSetDBHotSwap drives a stream with no references, installs a
// database mid-stream, and checks the verdicts flip from UnknownDevice
// to CandidateMatched without the stream restarting.
func TestEngineSetDBHotSwap(t *testing.T) {
	t.Parallel()
	tr := buildScenario(t, false)
	cfg := core.DefaultConfig(core.ParamInterArrival)
	db := core.NewDatabase(cfg, core.MeasureCosine)
	if err := db.Train(tr); err != nil {
		t.Fatal(err)
	}

	var unknownNoScores, matched int
	var order []string
	sink := engine.SinkFunc(func(ev engine.Event) {
		switch ev := ev.(type) {
		case engine.UnknownDevice:
			if ev.Scores == nil && !ev.HasBest {
				unknownNoScores++
			}
			order = append(order, "u")
		case engine.CandidateMatched:
			matched++
			order = append(order, "m")
			if len(ev.Scores) != db.Len() {
				t.Errorf("matched event carries %d scores, want %d", len(ev.Scores), db.Len())
			}
		}
	})
	eng, err := engine.New(cfg, nil, engine.Options{Window: 2 * time.Minute, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if eng.DB() != nil {
		t.Fatal("fresh engine has a database installed")
	}

	// Shape mismatch must be rejected and leave the engine unchanged.
	wrong := core.NewDatabase(core.Config{Param: core.ParamRate}, core.MeasureCosine)
	if err := eng.SetEnsembleDB(core.EnsembleOf(wrong.Compile())); err == nil {
		t.Fatal("mismatched SetEnsembleDB accepted")
	}

	half := len(tr.Records) / 2
	for i := range tr.Records {
		eng.Push(&tr.Records[i])
		if i == half {
			if err := eng.SetEnsembleDB(core.EnsembleOf(db.Compile())); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Close()

	if unknownNoScores == 0 {
		t.Fatal("no score-less UnknownDevice events before the database was installed")
	}
	if matched == 0 {
		t.Fatal("no CandidateMatched events after the database was installed")
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] == "m" && order[i] == "u" {
			t.Fatal("verdicts regressed from matched to unknown after the hot swap")
		}
	}
}

// TestEngineThreshold checks the acceptance threshold splits verdicts
// and that UnknownDevice still carries the best score.
func TestEngineThreshold(t *testing.T) {
	t.Parallel()
	tr := buildScenario(t, false)
	cfg := core.DefaultConfig(core.ParamInterArrival)
	train, valid := core.Split(tr, 3*time.Minute)
	db := core.NewDatabase(cfg, core.MeasureCosine)
	if err := db.Train(train); err != nil {
		t.Fatal(err)
	}
	var matched, unknown int
	sink := engine.SinkFunc(func(ev engine.Event) {
		switch ev := ev.(type) {
		case engine.CandidateMatched:
			matched++
			if ev.Best.Sim < 0.99 {
				t.Errorf("matched below threshold: %+v", ev.Best)
			}
		case engine.UnknownDevice:
			unknown++
			if !ev.HasBest || ev.Best.Sim >= 0.99 {
				t.Errorf("unknown verdict inconsistent: %+v", ev)
			}
		}
	})
	eng, err := engine.New(cfg, db.Compile(), engine.Options{
		Window: 2 * time.Minute, Threshold: 0.99, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(valid)
	eng.Close()
	if matched+unknown == 0 || unknown == 0 {
		t.Fatalf("threshold split degenerate: %d matched, %d unknown", matched, unknown)
	}
}

// TestEngineStats checks the counters an operator scrapes.
func TestEngineStats(t *testing.T) {
	t.Parallel()
	tr := edgeTrace()
	cfg := core.Config{Param: core.ParamSize, MinObservations: 10}
	db := core.NewDatabase(cfg, core.MeasureCosine)
	if err := db.Train(tr); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(cfg, db.Compile(), engine.Options{Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Frames != 0 || st.Elapsed != 0 {
		t.Fatalf("fresh engine stats = %+v", st)
	}
	for i := range tr.Records {
		eng.Push(&tr.Records[i])
	}
	mid := eng.Stats()
	if mid.Frames != uint64(len(tr.Records)) {
		t.Fatalf("frames = %d, want %d", mid.Frames, len(tr.Records))
	}
	if mid.LiveSenders == 0 {
		t.Fatal("no live senders with an open window")
	}
	eng.Close()
	st := eng.Stats()
	if st.LiveSenders != 0 {
		t.Fatalf("live senders after close = %d", st.LiveSenders)
	}
	if st.WindowsClosed == 0 || st.Candidates != st.Matched+st.Unknown {
		t.Fatalf("final stats inconsistent: %+v", st)
	}
	if st.Elapsed <= 0 || st.FramesPerSec <= 0 {
		t.Fatalf("throughput not tracked: %+v", st)
	}
	// Close is idempotent and a flushed engine stays flushed.
	eng.Close()
	if again := eng.Stats(); again.WindowsClosed != st.WindowsClosed {
		t.Fatalf("second Close changed windows: %d vs %d", again.WindowsClosed, st.WindowsClosed)
	}
}

// TestEngineChannelSink checks the channel delivery path end to end.
func TestEngineChannelSink(t *testing.T) {
	t.Parallel()
	tr := edgeTrace()
	cfg := core.Config{Param: core.ParamSize, MinObservations: 10}
	sink := engine.NewChannelSink(1024)
	eng, err := engine.New(cfg, nil, engine.Options{Window: time.Minute, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() {
		n := 0
		for range sink.C {
			n++
		}
		done <- n
	}()
	eng.PushTrace(tr)
	eng.Close()
	sink.Close()
	if n := <-done; n == 0 {
		t.Fatal("no events delivered through the channel")
	}
}

// TestEnginePushAfterClosePanics pins the sealed-stream contract.
func TestEnginePushAfterClosePanics(t *testing.T) {
	t.Parallel()
	eng, err := engine.New(core.Config{Param: core.ParamSize}, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Push after Close did not panic")
		}
	}()
	rec := capture.Record{T: 1, Sender: staA, Class: dot11.ClassData, FCSOK: true}
	eng.Push(&rec)
}

// TestEngineInlineDelivery pins the goroutine-free mode New builds: the
// Push that crosses a window boundary has delivered that window's
// events by the time it returns (the sink runs on the pushing
// goroutine, so the unsynchronised slice below is race-free), and the
// engine reports no queues and no dropped frames.
func TestEngineInlineDelivery(t *testing.T) {
	t.Parallel()
	var closed []engine.WindowClosed
	sink := engine.SinkFunc(func(ev engine.Event) {
		if w, ok := ev.(engine.WindowClosed); ok {
			closed = append(closed, w)
		}
	})
	eng, err := engine.New(core.Config{Param: core.ParamSize, MinObservations: 1}, nil,
		engine.Options{Window: time.Second, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		rec := capture.Record{T: int64(i) * 100_000, Sender: staA, Class: dot11.ClassData, FCSOK: true, Size: 100, RateMbps: 24}
		eng.Push(&rec)
		if want := i / 10; len(closed) != want {
			t.Fatalf("after push %d (t=%d µs): %d windows delivered, want %d", i, rec.T, len(closed), want)
		}
	}
	eng.Close()
	if len(closed) != 3 {
		t.Fatalf("%d windows after Close, want 3", len(closed))
	}
	if h := eng.Health(); h.QueueDepths != nil {
		t.Fatalf("inline engine reports queue depths %v, want nil", h.QueueDepths)
	}
	if st := eng.Stats(); st.DroppedFrames != 0 || st.Frames != 30 || st.WindowsClosed != 3 {
		t.Fatalf("stats %+v, want 30 frames, 3 windows, no dropped frames", st)
	}
}
