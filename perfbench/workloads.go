package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"syscall"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
	"dot11fp/internal/pcap"
	"dot11fp/internal/scenario"
)

// shards is the sharded engines' partition count: the two vCPUs of the
// machine the benchmark was defined on. It is fixed rather than read
// from the machine so two commits always compare the same pipeline.
const shards = 2

// spec is one workload: the pipeline shape plus the synthesiser of its
// inputs. README.md records why each workload exists.
type spec struct {
	name    string
	window  time.Duration
	cfgs    []core.Config // one entry: single-parameter engine
	sharded bool
	cluster bool
	trainer *engine.TrainerOptions // nil: references come from the checkpoint
	serve   bool                   // server.Site tap, SSE subscriber, open-loop reader
	synth   func(sp *spec, seed uint64) (*inputs, error)
}

// inputs are a workload's synthesised captures: independent replicas
// of the workload, each with its own population. One run replays all of
// them in turn, so its figures average over several populations instead
// of hanging on the draw of one.
type inputs struct {
	replicas []*replica
}

// replica is one capture with its reference checkpoint. Both live
// outside the Go heap (see offHeap), so neither the collector's pacing
// nor the live-heap metric sees them.
type replica struct {
	pcaps [][]byte // one per monitor
	ckpt  []byte   // SaveBinary output; nil for a cold start
	want  expected // filled by the reference run
}

func (in *inputs) release() {
	for _, rep := range in.replicas {
		if rep == nil {
			continue // its synthesis failed
		}
		for _, b := range append(rep.pcaps, rep.ckpt) {
			if b != nil {
				_ = syscall.Munmap(b) // process exit reclaims it anyway
			}
		}
		rep.pcaps, rep.ckpt = nil, nil
	}
}

func (in *inputs) pcapBytes() (n int) {
	for _, rep := range in.replicas {
		for _, b := range rep.pcaps {
			n += len(b)
		}
	}
	return n
}

var workloads = []*spec{
	{
		name:   "office-serial",
		window: time.Minute,
		cfgs:   []core.Config{core.DefaultConfig(core.ParamInterArrival)},
		synth:  synthOffice,
	},
	{
		name:   "conference-fleet",
		window: time.Minute,
		cfgs: []core.Config{
			core.DefaultConfig(core.ParamInterArrival),
			core.DefaultConfig(core.ParamTxTime),
			core.DefaultConfig(core.ParamSize),
		},
		sharded: true,
		synth:   synthConference,
	},
	{
		name:   "randomized-enroll",
		window: time.Minute,
		cfgs: []core.Config{
			core.DefaultConfig(core.ParamInterArrival),
			core.DefaultConfig(core.ParamTxTime),
		},
		sharded: true,
		cluster: true,
		trainer: &engine.TrainerOptions{Horizon: 2, Update: true, MaxPending: 512},
		serve:   true,
		synth:   synthRandomized,
	},
}

func lookupWorkload(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, sp := range workloads {
		out = append(out, sp.name)
	}
	return out
}

// Workload sizes. Each replica follows the paper's office setting or
// its Sigcomm'08 conference setting; the trained prefix is the first
// trainPrefix of each replica.
const (
	replicas           = 8
	replicaDuration    = 15 * time.Minute
	trainPrefix        = 5 * time.Minute
	officeStations     = 40
	confStations       = 200 // plus 100 walk-ins (scenario.Conference churn)
	randomizedStations = 200 // plus 100 walk-ins
	extraSeeds         = 10  // relabeled reference populations for conference-fleet
	extraDuration      = 5 * time.Minute
	extraStations      = 300
)

// synthesise builds the replicas, two at a time.
func synthesise(seed uint64, one func(i int, seed uint64) (*replica, error)) (*inputs, error) {
	in := &inputs{replicas: make([]*replica, replicas)}
	err := parallel(replicas, func(i int) (err error) {
		in.replicas[i], err = one(i, seed*replicas+uint64(i))
		return err
	})
	if err != nil {
		in.release()
		return nil, err
	}
	return in, nil
}

// parallel runs f(0), …, f(n-1), as many at a time as there are shards,
// and returns their errors joined.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, shards)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// synthOffice: one radiotap monitor, an iat reference database trained
// on the prefix.
func synthOffice(sp *spec, seed uint64) (*inputs, error) {
	return synthesise(seed, func(i int, seed uint64) (*replica, error) {
		tr, _, err := scenario.Build(scenario.Office(fmt.Sprintf("office-%d", i), seed, replicaDuration, officeStations))
		if err != nil {
			return nil, err
		}
		db := core.NewDatabase(sp.cfgs[0], core.MeasureCosine)
		if err := db.Train(tr.Slice(0, trainPrefix.Microseconds())); err != nil {
			return nil, err
		}
		var ck bytes.Buffer
		if err := db.SaveBinary(&ck); err != nil {
			return nil, err
		}
		p, err := encodePcap(tr, pcap.LinkTypeRadiotap)
		if err != nil {
			return nil, err
		}
		ckpt, err := offHeapCopy(ck.Bytes())
		if err != nil {
			return nil, err
		}
		return &replica{pcaps: [][]byte{p}, ckpt: ckpt}, nil
	})
}

// synthConference: the conference capture split across a radiotap and
// an AVS/Prism monitor, and a fused ensemble over the trained prefix
// plus extraSeeds further conference populations under relabeled
// addresses (shared by every replica).
func synthConference(sp *spec, seed uint64) (*inputs, error) {
	extras := make([]*core.Ensemble, extraSeeds)
	err := parallel(extraSeeds, func(k int) error {
		xtr, _, err := scenario.Build(scenario.Conference(fmt.Sprintf("extra-%d", k), ^(seed*extraSeeds + uint64(k)), extraDuration, extraStations))
		if err != nil {
			return err
		}
		x, err := core.NewEnsemble(core.MeasureCosine, sp.cfgs...)
		if err == nil {
			err = x.Train(xtr)
		}
		extras[k] = x
		return err
	})
	if err != nil {
		return nil, err
	}
	return synthesise(seed, func(i int, seed uint64) (*replica, error) {
		tr, _, err := scenario.Build(scenario.Conference(fmt.Sprintf("conference-%d", i), seed, replicaDuration, confStations))
		if err != nil {
			return nil, err
		}
		ens, err := core.NewEnsemble(core.MeasureCosine, sp.cfgs...)
		if err != nil {
			return nil, err
		}
		if err := ens.Train(tr.Slice(0, trainPrefix.Microseconds())); err != nil {
			return nil, err
		}
		for k, x := range extras {
			for j, addr := range x.Members()[0].Devices() {
				sigs := x.Signatures(addr)
				if sigs == nil {
					continue // partially known: not a matchable reference
				}
				relabeled := dot11.Addr{0x0e, byte(k), 0, byte(j >> 16), byte(j >> 8), byte(j)}
				if err := ens.Add(relabeled, sigs); err != nil {
					return nil, err
				}
			}
		}
		var ck bytes.Buffer
		if err := ens.SaveBinary(&ck); err != nil {
			return nil, err
		}
		radio, avs := splitMonitors(tr)
		a, err := encodePcap(radio, pcap.LinkTypeRadiotap)
		if err != nil {
			return nil, err
		}
		b, err := encodePcap(avs, pcap.LinkTypePrism)
		if err != nil {
			return nil, err
		}
		ckpt, err := offHeapCopy(ck.Bytes())
		if err != nil {
			return nil, err
		}
		return &replica{pcaps: [][]byte{a, b}, ckpt: ckpt}, nil
	})
}

// synthRandomized: a conference where half the clients rotate their MAC
// per probe burst, one radiotap monitor, cold start (no checkpoint).
func synthRandomized(sp *spec, seed uint64) (*inputs, error) {
	return synthesise(seed, func(i int, seed uint64) (*replica, error) {
		p := scenario.Conference(fmt.Sprintf("randomized-%d", i), seed, replicaDuration, randomizedStations)
		p.RandomizedFrac = 0.5
		tr, _, err := scenario.Build(p)
		if err != nil {
			return nil, err
		}
		b, err := encodePcap(tr, pcap.LinkTypeRadiotap)
		if err != nil {
			return nil, err
		}
		return &replica{pcaps: [][]byte{b}}, nil
	})
}

// splitMonitors assigns each record to one of two monitors by a hash of
// its transmitter (receiver for transmitter-less frames), as if each
// monitor sat nearer half of the stations.
func splitMonitors(tr *capture.Trace) (a, b *capture.Trace) {
	a = &capture.Trace{Name: tr.Name + " radiotap", Base: tr.Base, Channel: tr.Channel, Encrypted: tr.Encrypted}
	b = &capture.Trace{Name: tr.Name + " avs", Base: tr.Base, Channel: tr.Channel, Encrypted: tr.Encrypted}
	for i := range tr.Records {
		rec := &tr.Records[i]
		key := rec.Sender
		if key.IsZero() {
			key = rec.Receiver
		}
		h := fnv.New32a()
		h.Write(key[:])
		if h.Sum32()&1 == 0 {
			a.Records = append(a.Records, *rec)
		} else {
			b.Records = append(b.Records, *rec)
		}
	}
	return a, b
}

// encodePcap writes the trace as a pcap stream into off-heap memory.
func encodePcap(tr *capture.Trace, linkType uint32) ([]byte, error) {
	var buf bytes.Buffer
	if err := capture.WritePcapLinkType(&buf, tr, linkType); err != nil {
		return nil, err
	}
	return offHeapCopy(buf.Bytes())
}

// offHeap returns n bytes of anonymous memory outside the Go heap. A
// multi-hundred-megabyte input held on the heap would stretch the
// collector's pacing and dominate the live-heap metric; a real monitor
// reads its capture from a file or socket instead.
func offHeap(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d input bytes: %w", n, err)
	}
	return b, nil
}

// offHeapCopy copies b into off-heap memory.
func offHeapCopy(b []byte) ([]byte, error) {
	out, err := offHeap(len(b))
	if err != nil {
		return nil, err
	}
	copy(out, b)
	return out, nil
}
