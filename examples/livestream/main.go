// Livestream: the streaming engine end to end — learn references from
// the first minutes of a capture, then push the rest through the
// push-based Engine one record at a time and react to typed match
// events as each detection window closes. Mid-stream, the reference
// database is retrained and hot-swapped without dropping a frame.
//
// Run with:
//
//	go run ./examples/livestream
package main

import (
	"fmt"
	"log"
	"time"

	"dot11fp"
)

func main() {
	// A 16-minute office channel; the first 4 minutes are the
	// reference period, the rest arrives "live".
	trace, err := dot11fp.GenerateOffice("livestream", 11, 16*time.Minute, 12)
	if err != nil {
		log.Fatal(err)
	}
	train, live := dot11fp.Split(trace, 4*time.Minute)

	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	db := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	if err := db.Train(train); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("references: %d devices from the first 4 minutes\n\n", db.Len())

	eng, err := dot11fp.NewEngine(cfg, db.Compile(), dot11fp.EngineOptions{
		Window: 3 * time.Minute,
		Sink: dot11fp.SinkFunc(func(ev dot11fp.Event) {
			switch ev := ev.(type) {
			case dot11fp.CandidateMatched:
				verdict := "identified"
				if ev.Best.Addr != ev.Addr {
					verdict = "MISMATCH"
				}
				fmt.Printf("  %s -> %s  sim=%.4f  %s\n", ev.Addr, ev.Best.Addr, ev.Best.Sim, verdict)
			case dot11fp.WindowClosed:
				fmt.Printf("window %d closed: %d candidates, %d matched\n\n",
					ev.Window, ev.Candidates, ev.Matched)
			}
		}),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Feed the live records one at a time, exactly as a monitor driver
	// would. Halfway through, fold the stream seen so far into the
	// references and hot-swap the database mid-stream.
	half := len(live.Records) / 2
	for i := range live.Records {
		eng.Push(&live.Records[i])
		if i == half {
			if err := db.Train(live.Slice(live.Records[0].T, live.Records[half].T)); err != nil {
				log.Fatal(err)
			}
			if err := eng.SetEnsembleDB(dot11fp.EnsembleOf(db.Compile())); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("(references retrained mid-stream: %d devices)\n\n", db.Len())
		}
	}
	eng.Close()

	st := eng.Stats()
	fmt.Printf("stats: %d frames (%.0f frames/s), %d windows, %d/%d candidates matched\n",
		st.Frames, st.FramesPerSec, st.WindowsClosed, st.Matched, st.Candidates)
}
