// Command livemon is the streaming face of the pipeline: it reads a
// radiotap or AVS/Prism pcap stream record by record (a file, or a live
// `tcpdump -w -` feed on stdin), drives the push-based Engine, and
// prints per-window match events as each 5-minute detection window
// closes — the paper's monitoring loop as a continuous service instead
// of a batch replay.
//
// References come from a saved database (-db, JSON or binary
// checkpoint), are learned from the stream's first -ref minutes, or —
// with -enroll — are learned continuously: unknown senders that stay
// candidates for a full detection window are promoted into the
// reference set and hot-swapped live, so a cold start (-ref 0 -enroll)
// self-populates. Try it end to end with the bundled generator:
//
//	go run ./cmd/tracegen -scenario office -duration 20m -stations 16 -o office.pcap
//	go run ./cmd/livemon -ref 5m -window 3m office.pcap
//
// With -shards > 1 the stream drives the sharded concurrent engine —
// same events, same order, across as many cores as asked for — and
// -stats prints a periodic counters line to stderr. A -param comma
// list (e.g. -param rate,size,iat) fuses several network parameters
// into one fingerprint: every member is extracted in one pass and each
// window is matched on the mean of the per-parameter similarities.
// Several inputs at once, bounded sender state, backpressure policy
// and reference checkpointing live in the companion daemon,
// fingerprintd.
//
// Usage:
//
//	livemon [-db ref.fpdb | -ref 20m] [-param iat | -param rate,size,iat]
//	        [-measure cosine] [-enroll] [-window 5m] [-threshold 0]
//	        [-index auto] [-shards 1] [-stats 0] [-listen :9077]
//	        [-site default] [-cluster] [-v] [capture.pcap | -]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dot11fp"
	"dot11fp/internal/cmdutil"
	"dot11fp/internal/server"
)

func main() {
	dbPath := flag.String("db", "", "reference database (JSON, binary or ensemble checkpoint); overrides -ref")
	ref := flag.Duration("ref", 20*time.Minute, "training prefix learned from the stream when no -db is given (0 with -enroll = cold start)")
	paramFlag := flag.String("param", "iat", "network parameter or comma list for fusion (rate,size,mtime,txtime,iat); ignored with -db")
	measureFlag := flag.String("measure", "cosine", "similarity measure; ignored with -db")
	window := flag.Duration("window", dot11fp.DefaultWindow, "detection window size")
	threshold := flag.Float64("threshold", 0, "acceptance threshold on the best similarity")
	enroll := flag.Bool("enroll", false, "enroll unknown senders into the references while monitoring")
	shards := flag.Int("shards", 1, "engine shards: 1 = serial engine, 0 = GOMAXPROCS, N = N shards")
	statsEvery := flag.Duration("stats", 0, "periodic stats line interval on stderr (0 = off)")
	indexFlag := flag.String("index", "auto", "match index: auto (build for large reference sets), on, or off (exhaustive dense matching)")
	cluster := flag.Bool("cluster", false, "merge MAC-randomizing senders by probe content before attribution (training and monitoring)")
	verbose := flag.Bool("v", false, "also print below-minimum drops and enrollment progress")
	listen := flag.String("listen", "", "serve the HTTP API, SSE verdict feed and /metrics on this address (trusted networks only; empty = off)")
	siteName := flag.String("site", "default", "site name under /api/v1/sites/{site} with -listen")
	flag.Parse()

	indexMode, err := dot11fp.ParseIndexMode(*indexFlag)
	if err != nil {
		fatal(err)
	}
	in := os.Stdin
	if name := flag.Arg(0); name != "" && name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close() //fp:closeok read-only capture handle; decode errors are the signal
		in = f
	}
	stream, err := dot11fp.ReadPcapStream(in)
	if err != nil {
		fatal(err)
	}

	// With -cluster, one Clusterer spans training and monitoring: the
	// training prefix is read through it (canonical senders in the
	// references) and the engine resolves live frames through it.
	var cl *dot11fp.Clusterer
	var trainStream dot11fp.RecordSource = stream
	if *cluster {
		cl = dot11fp.NewClusterer(0)
		trainStream = cmdutil.NewClusterSource(stream, cl)
	}
	enrollFlags := cmdutil.EnrollFlags{Enroll: *enroll, Windows: 1}
	cfgs, measure, refs, pending, err := cmdutil.ResolveReferences(
		"livemon", *dbPath, *ref, *paramFlag, *measureFlag, enrollFlags, trainStream, 1)
	if err != nil {
		fatal(err)
	}
	refs.SetIndexing(indexMode)
	trainer, cedb, err := enrollFlags.EnrollOrCompile(cfgs, measure, refs) // when enrolling, the trainer owns the references
	if err != nil {
		fatal(err)
	}
	if trainer != nil {
		// Cold-start trainers build their own databases; hand them the
		// mode the seed could not carry in.
		trainer.SetIndexing(indexMode)
	}

	// -shards 1 runs the engine inline on this goroutine, more shards
	// behind queues; the monitoring loop is the same either way. A
	// -param comma list adds members to the fused reference set.
	var eng *dot11fp.Engine
	// Windows are stamped with the capture's wall clock.
	clock := func(us int64) string {
		return stream.Base().Add(time.Duration(us) * time.Microsecond).Format("15:04:05")
	}
	var sink dot11fp.Sink = dot11fp.SinkFunc(cmdutil.Printer(os.Stdout, clock, *verbose))
	// The site wraps the sink before the engine exists (the engine's
	// Sink is fixed at construction); the engine attaches afterwards.
	var site *server.Site
	if *listen != "" {
		site = server.NewSite(*siteName, server.SiteOptions{Window: *window, Threshold: *threshold})
		sink = site.Sink(sink)
	}
	if *shards == 1 {
		eng, err = dot11fp.NewEnsembleEngine(cfgs, cedb, dot11fp.EngineOptions{
			Window: *window, Threshold: *threshold, Sink: sink, Trainer: trainer, Cluster: cl,
		})
	} else {
		eng, err = dot11fp.NewShardedEnsembleEngine(cfgs, cedb, dot11fp.ShardedOptions{
			Window: *window, Threshold: *threshold, Shards: *shards, Sink: sink, Trainer: trainer, Cluster: cl,
		})
	}
	if err != nil {
		fatal(err)
	}
	var srv *server.Server
	if site != nil {
		site.Attach(eng, trainer, nil, refs)
		reg := server.NewRegistry()
		if err := reg.Add(site); err != nil {
			fatal(err)
		}
		srv, err = server.Start(*listen, reg, server.Options{})
		if err != nil {
			fatal(fmt.Errorf("-listen %s: %w", *listen, err))
		}
		fmt.Fprintf(os.Stderr, "livemon: serving HTTP on %s (site %q)\n", srv.Addr(), *siteName)
	}

	stop := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					cmdutil.StatsLine(os.Stderr, "livemon", eng.Stats())
					cmdutil.HealthLine(os.Stderr, "livemon", eng.Health(), nil)
					if trainer != nil {
						cmdutil.TrainerLine(os.Stderr, "livemon", trainer.Stats())
					}
				case <-stop:
					return
				}
			}
		}()
	}

	if pending != nil {
		eng.Push(pending)
	}
	for {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		eng.Push(&rec)
	}
	eng.Close()
	close(stop)
	cmdutil.StatsLine(os.Stderr, "livemon", eng.Stats())
	cmdutil.HealthLine(os.Stderr, "livemon", eng.Health(), nil)
	if trainer != nil {
		cmdutil.TrainerLine(os.Stderr, "livemon", trainer.Stats())
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "livemon:", err)
	os.Exit(1)
}
