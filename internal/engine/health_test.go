package engine_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
	"dot11fp/internal/faultinject"
)

// pushStream feeds n data records from the given senders round-robin,
// 50 µs apart.
func pushStream(eng *engine.Engine, senders []dot11.Addr, n int) {
	for i := 0; i < n; i++ {
		rec := capture.Record{
			T: int64(i) * 50, Sender: senders[i%len(senders)], Receiver: apX,
			Class: dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
		}
		eng.Push(&rec)
	}
}

// shardSenders picks per-shard sender addresses via ShardOf, so a test
// can aim records (and faults) at specific shards deterministically.
func shardSenders(t *testing.T, eng *engine.Sharded, shards, perShard int) [][]dot11.Addr {
	t.Helper()
	out := make([][]dot11.Addr, shards)
	for seed := uint64(1); ; seed++ {
		a := dot11.LocalAddr(seed)
		sh := eng.ShardOf(a)
		if len(out[sh]) < perShard {
			out[sh] = append(out[sh], a)
		}
		done := true
		for _, s := range out {
			if len(s) < perShard {
				done = false
			}
		}
		if done {
			return out
		}
		if seed > 1_000_000 {
			t.Fatal("could not find senders for every shard")
		}
	}
}

// TestShardedShardPanicRecovery pins the supervision contract: a shard
// that panics mid-batch loses that batch but nothing else — Close
// completes (the merger still sees every (shard, window) segment), the
// other shards' verdicts arrive, and the panic is counted and reported
// on the health sink with a stack.
func TestShardedShardPanicRecovery(t *testing.T) {
	t.Parallel()
	var panics []engine.ComponentPanicked
	var hmu sync.Mutex
	health := engine.SinkFunc(func(ev engine.Event) {
		if p, ok := ev.(engine.ComponentPanicked); ok {
			hmu.Lock()
			panics = append(panics, p)
			hmu.Unlock()
		}
	})
	verdicts := map[dot11.Addr]int{}
	sink := engine.SinkFunc(func(ev engine.Event) {
		if u, ok := ev.(engine.UnknownDevice); ok {
			verdicts[u.Addr]++
		}
	})
	eng, err := engine.NewSharded(core.Config{Param: core.ParamSize, MinObservations: 1}, nil,
		engine.ShardedOptions{
			Window: time.Second, Shards: 2, Sink: sink, HealthSink: health,
			Hooks: engine.Hooks{ShardBatch: faultinject.ShardFaults{Shard: 0, PanicAt: 2}.Hook()},
		})
	if err != nil {
		t.Fatal(err)
	}
	senders := shardSenders(t, eng, 2, 2)
	pushStream(eng, append(senders[0], senders[1]...), 100_000)
	eng.Close()

	h := eng.Health()
	if h.ShardPanics == 0 || h.Healthy() {
		t.Fatalf("health = %+v, want the injected shard panic counted", h)
	}
	if !strings.Contains(h.LastPanic, faultinject.PanicValue) {
		t.Fatalf("LastPanic = %q, want the injected panic value", h.LastPanic)
	}
	hmu.Lock()
	defer hmu.Unlock()
	if len(panics) == 0 {
		t.Fatal("no ComponentPanicked event on the health sink")
	}
	p := panics[0]
	if p.Component != "shard" || p.Shard != 0 || p.Stack == "" {
		t.Fatalf("ComponentPanicked = %+v, want shard 0 with a stack", p)
	}
	for _, a := range senders[1] {
		if verdicts[a] == 0 {
			t.Fatalf("healthy shard's sender %v produced no verdicts after a peer shard panicked", a)
		}
	}
}

// TestShardedMergerPanicRecovery pins merger supervision: a sink that
// panics during event delivery costs that window's events, never the
// engine — Close and Flush still drain, later windows still emit.
func TestShardedMergerPanicRecovery(t *testing.T) {
	t.Parallel()
	var windows atomic.Int32
	sink := engine.SinkFunc(func(ev engine.Event) {
		if _, ok := ev.(engine.WindowClosed); ok {
			if windows.Add(1) == 1 {
				panic("sink exploded on the first window")
			}
		}
	})
	eng, err := engine.NewSharded(core.Config{Param: core.ParamSize, MinObservations: 1}, nil,
		engine.ShardedOptions{Window: time.Second, Shards: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	senders := []dot11.Addr{dot11.LocalAddr(1), dot11.LocalAddr(2)}
	pushStream(eng, senders, 200_000) // 10 s of trace: ~10 windows
	eng.Close()
	h := eng.Health()
	if h.MergerPanics != 1 {
		t.Fatalf("MergerPanics = %d, want 1", h.MergerPanics)
	}
	if windows.Load() < 2 {
		t.Fatalf("only %d windows emitted: the merger did not survive the sink panic", windows.Load())
	}
	if st := eng.Stats(); st.WindowsClosed < 2 {
		t.Fatalf("stats %+v, want the stream to continue past the panicked window", st)
	}
}

// TestEnginePanicRecovery is the serial-engine counterpart: a panic
// during window delivery (here from the sink) is recovered on the
// pushing goroutine, counted, and later windows deliver normally.
func TestEnginePanicRecovery(t *testing.T) {
	t.Parallel()
	var windows atomic.Int32
	sink := engine.SinkFunc(func(ev engine.Event) {
		if _, ok := ev.(engine.WindowClosed); ok {
			if windows.Add(1) == 1 {
				panic("sink exploded on the first window")
			}
		}
	})
	eng, err := engine.New(core.Config{Param: core.ParamSize, MinObservations: 1}, nil,
		engine.Options{Window: time.Second, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	senders := []dot11.Addr{dot11.LocalAddr(1), dot11.LocalAddr(2)}
	pushStream(eng, senders, 100_000)
	eng.Close()
	h := eng.Health()
	if h.EnginePanics != 1 {
		t.Fatalf("EnginePanics = %d, want 1 (health: %+v)", h.EnginePanics, h)
	}
	if windows.Load() < 2 {
		t.Fatalf("only %d windows emitted after the panic", windows.Load())
	}
}

// TestShardedWatchdogStall pins the stall detector: a shard wedged
// mid-batch with work queued is reported ShardStalled, and ShardResumed
// once it moves again.
func TestShardedWatchdogStall(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	var gated atomic.Bool
	hsink := engine.NewChannelSink(64)
	events := hsink.C
	eng, err := engine.NewSharded(core.Config{Param: core.ParamSize, MinObservations: 1}, nil,
		engine.ShardedOptions{
			Window:     time.Hour, // no window churn: pure ingest
			Shards:     2,
			QueueLen:   16 * 256,
			Watchdog:   2 * time.Millisecond,
			HealthSink: hsink,
			Hooks: engine.Hooks{ShardBatch: func(shard, _ int) {
				if shard == 0 && gated.CompareAndSwap(false, true) {
					<-gate // wedge the first shard-0 batch
				}
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	senders := shardSenders(t, eng, 2, 1)
	// Enough shard-0 records to queue several batches behind the wedge.
	done := make(chan struct{})
	go func() {
		defer close(done)
		pushStream(eng, senders[0], 10_000)
	}()

	waitFor := func(want string) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case ev := <-events:
				switch ev := ev.(type) {
				case engine.ShardStalled:
					if want == "stalled" && ev.Shard == 0 && ev.Queued > 0 && ev.For > 0 {
						return
					}
					if want == "stalled" {
						t.Fatalf("ShardStalled = %+v, want shard 0 with queued work", ev)
					}
				case engine.ShardResumed:
					if want == "resumed" && ev.Shard == 0 {
						return
					}
				}
			case <-deadline:
				t.Fatalf("no %s event from the watchdog", want)
			}
		}
	}
	waitFor("stalled")
	if h := eng.Health(); len(h.StalledShards) != 1 || h.StalledShards[0] != 0 {
		t.Fatalf("Health.StalledShards = %v, want [0]", h.StalledShards)
	}
	close(gate)
	waitFor("resumed")
	<-done
	eng.Close()
	if h := eng.Health(); len(h.StalledShards) != 0 || h.Panics() != 0 {
		t.Fatalf("post-run health = %+v, want clean (a stall is not a panic)", h)
	}
	if len(eng.Health().QueueDepths) != 2 {
		t.Fatalf("QueueDepths = %v, want one entry per shard", eng.Health().QueueDepths)
	}
}
