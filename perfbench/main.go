// Command perfbench is the repository's frame-to-verdict benchmark. It
// synthesises one capture workload from a seed, replays it from
// in-memory pcap bytes through the real ingest stack (capture → optional
// core.Clusterer → serial or sharded engine → sink, plus the server
// taps where the workload names them) and prints its metrics, ending
// with one JSON line:
//
//	bash perfbench/run.sh --workload office-serial --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// a traced run prints the per-layer ledger and carries the per-layer
// metrics instead. Any wrong event digest or record count fails the run
// (exit status 1) and reports no numbers. README.md documents the
// workloads, the metrics and which layer should move which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed: the same seed synthesises the same capture")
	seconds := flag.Int("seconds", 10, "measurement time in seconds (whole passes are kept)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.Parse()

	sp := lookupWorkload(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r := &runner{sp: sp, seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := r.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", sp.name, *seed, err)
		if res != nil && !res.Correct {
			printJSON(res)
		}
		os.Exit(1)
	}
	printJSON(res)
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(res *result) {
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
