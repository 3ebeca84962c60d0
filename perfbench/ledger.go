package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/pcap"
	"dot11fp/internal/prism"
	"dot11fp/internal/radiotap"
)

// span is one timed interval of the traced run, kept in memory and
// written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root
	Run    int    `json:"run"`    // one per root: a pipeline pass or a ledger
	N      int    `json:"n"`      // records (or calls) the span covers
}

type tracer struct {
	epoch time.Time
	spans []span
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// open starts a root span; close ends it.
func (t *tracer) open(name string) int {
	t.run++
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: t.ns(time.Now()), Parent: -1, Run: t.run})
	return len(t.spans) - 1
}

func (t *tracer) close(id int, end time.Time, n int) {
	t.spans[id].End, t.spans[id].N = t.ns(end), n
}

func (t *tracer) add(name string, start, end time.Time, parent, n int) {
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: t.ns(start), End: t.ns(end),
		Parent: parent, Run: t.spans[parent].Run, N: n})
}

// addIntervals adds spans recorded on another goroutine as offsets from
// epoch.
func (t *tracer) addIntervals(name string, iv [][2]int64, epoch time.Time, parent int) {
	off := t.ns(epoch)
	for _, v := range iv {
		t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: off + v[0], End: off + v[1],
			Parent: parent, Run: t.spans[parent].Run, N: 1})
	}
}

// layerTotal aggregates the spans of one name under one kind of root.
type layerTotal struct {
	key         string
	spans, n    int
	total, self int64
}

// ledger computes each span's self time (its duration minus the part
// its children cover) and totals them per root name and span name.
func (t *tracer) ledger() []*layerTotal {
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	totals := make(map[string]*layerTotal)
	var order []*layerTotal
	for _, s := range t.spans {
		key := s.Name
		if s.Parent >= 0 {
			key = t.spans[s.Parent].Name + " > " + s.Name
		}
		lt := totals[key]
		if lt == nil {
			lt = &layerTotal{key: key}
			totals[key] = lt
			order = append(order, lt)
		}
		dur := s.End - s.Start
		lt.spans++
		lt.n += s.N
		lt.total += dur
		lt.self += dur - covered(t.spans, children[s.ID], s.Start, s.End)
	}
	return order
}

// covered is the length of the union of the child intervals within
// [lo, hi).
func covered(spans []span, ids []int, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64 = 0, lo
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			sum += v[1] - end
			end = v[1]
		}
	}
	return sum
}

func (t *tracer) printLedger() {
	fmt.Println("  self-time ledger (root > span: spans, records, total ms, self ms, self ns/record)")
	for _, lt := range t.ledger() {
		per := 0.0
		if lt.n > 0 {
			per = float64(lt.self) / float64(lt.n)
		}
		fmt.Printf("    %-42s %8d %11d %10.1f %10.1f %9.1f\n", lt.key, lt.spans, lt.n, ms(float64(lt.total)), ms(float64(lt.self)), per)
	}
}

// write saves the spans as JSON lines under .bench_build/perfbench.
func (t *tracer) write(workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("wrote %d spans to %s", len(t.spans), path)
	return nil
}

// Results of the ledgers' timed calls land here so the compiler cannot
// drop the calls.
var ledgerSink int

// decodeTotals is the decode ledger. Each layer is timed in place by
// differencing: the same bytes are decoded to increasing depths — pcap
// framing; + capture header (radiotap or prism); + dot11.Decode — and
// the whole stack is timed as capture.StreamReader.Next. A layer's cost is the difference
// between the depths with and without it, so every layer runs with the
// packet hot in cache exactly as inside Next, and what Next spends
// beyond its layers (record assembly) is the residual. Management
// frames are too rare for a difference to resolve dot11.ParseMgmtBody,
// so it is timed directly over batches of their bodies (see
// ledgerElems).
type decodeTotals struct {
	records, radiotapRecs, prismRecs, mgmt, mergeRecs int
	pcapNs, radiotapNs, prismNs, dot11Ns, elemsNs     int64
	nextNs, mergeNs                                   int64
	pcapAllocs                                        uint64
}

// Decode depths of the ledger's loops; depthNext is StreamReader.Next.
const (
	depthPcap = iota
	depthHeader
	depthDot11
	depthNext
	depths
)

var depthSpan = [depths]string{"decode.pcap", "decode.+header", "decode.+dot11", "capture.stream_next"}

// ledgerRounds repeats each depth's loop; the fastest round counts, as
// interference from the rest of the machine only ever adds time.
const ledgerRounds = 2

func (r *runner) decodeLedger() (*decodeTotals, error) {
	d := &decodeTotals{}
	root := r.tr.open("ledger.decode")
	for _, rep := range r.in.replicas {
		for _, b := range rep.pcaps {
			if err := r.ledgerFile(d, b, root); err != nil {
				return nil, err
			}
		}
		if len(rep.pcaps) > 1 {
			if err := r.ledgerMerge(d, rep, root); err != nil {
				return nil, err
			}
		}
	}
	r.tr.close(root, time.Now(), d.records)
	return d, nil
}

// ledgerFile runs every depth over one pcap file.
func (r *runner) ledgerFile(d *decodeTotals, b []byte, root int) error {
	var best [depths]int64
	var n int
	isPrism := false
	for round := 0; round < ledgerRounds; round++ {
		for depth := 0; depth < depths; depth++ {
			a0 := heapAllocs()
			ns, k, prismFile, err := r.decodeDepth(b, depth, root)
			if err != nil {
				return err
			}
			if depth == depthPcap {
				n, isPrism = k, prismFile
				if round == 0 {
					d.pcapAllocs += heapAllocs() - a0
				}
			}
			if round == 0 || ns < best[depth] {
				best[depth] = ns
			}
		}
	}
	d.records += n
	d.pcapNs += best[depthPcap]
	if isPrism {
		d.prismNs += best[depthHeader] - best[depthPcap]
		d.prismRecs += n
	} else {
		d.radiotapNs += best[depthHeader] - best[depthPcap]
		d.radiotapRecs += n
	}
	d.dot11Ns += best[depthDot11] - best[depthHeader]
	d.nextNs += best[depthNext]
	return r.ledgerElems(d, b, root)
}

// decodeDepth decodes every packet of b to the given depth in blocks
// of traceBlock, one span per block, and returns the time taken, the
// packets seen, and whether b is an AVS capture.
func (r *runner) decodeDepth(b []byte, depth, root int) (ns int64, n int, isPrism bool, err error) {
	if depth == depthNext {
		ns, n, err = r.streamNext(b, root)
		return ns, n, false, err
	}
	pr, err := pcap.NewReader(bytes.NewReader(b))
	if err != nil {
		return 0, 0, false, err
	}
	isPrism = pr.LinkType() == pcap.LinkTypePrism
	var buf []byte
	for eof := false; !eof; {
		t0 := time.Now()
		k := 0
		for ; k < traceBlock; k++ {
			p, err := pr.NextInto(buf)
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return 0, 0, false, err
			}
			buf = p.Data[:cap(p.Data)]
			if depth < depthHeader {
				continue
			}
			hn, err := headerLen(p.Data, isPrism)
			if err != nil || depth < depthDot11 {
				continue
			}
			f, _ := dot11.Decode(p.Data[hn:], false)
			ledgerSink += len(f.Body)
		}
		t1 := time.Now()
		r.tr.add(depthSpan[depth], t0, t1, root, k)
		ns += int64(t1.Sub(t0))
		n += k
	}
	return ns, n, isPrism, nil
}

// headerLen decodes the capture header and returns its length.
func headerLen(data []byte, isPrism bool) (int, error) {
	var hn int
	var err error
	if isPrism {
		_, hn, err = prism.Decode(data)
	} else {
		_, hn, err = radiotap.Decode(data)
	}
	ledgerSink += hn
	return hn, err
}

// ledgerElems times dot11.ParseMgmtBody over batches of the management
// frame bodies in b, copied out of the decode untimed.
func (r *runner) ledgerElems(d *decodeTotals, b []byte, root int) error {
	pr, err := pcap.NewReader(bytes.NewReader(b))
	if err != nil {
		return err
	}
	isPrism := pr.LinkType() == pcap.LinkTypePrism
	var buf, arena []byte
	subtypes := make([]dot11.Subtype, 0, traceBlock)
	offs := make([]int, 0, traceBlock+1)
	for eof := false; !eof; {
		arena, subtypes, offs = arena[:0], subtypes[:0], offs[:0]
		for len(subtypes) < traceBlock {
			p, err := pr.NextInto(buf)
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return err
			}
			buf = p.Data[:cap(p.Data)]
			hn, err := headerLen(p.Data, isPrism)
			if err != nil {
				continue
			}
			f, err := dot11.Decode(p.Data[hn:], false)
			if err != nil || f.FC.Type != dot11.TypeManagement {
				continue
			}
			subtypes = append(subtypes, f.FC.Subtype)
			offs = append(offs, len(arena))
			arena = append(arena, f.Body...)
		}
		offs = append(offs, len(arena))
		t0 := time.Now()
		for i, st := range subtypes {
			if e := dot11.ParseMgmtBody(st, arena[offs[i]:offs[i+1]]); e.Has(dot11.IESSID) {
				ledgerSink++
			}
		}
		t1 := time.Now()
		r.tr.add("dot11.elems", t0, t1, root, len(subtypes))
		d.elemsNs += int64(t1.Sub(t0))
		d.mgmt += len(subtypes)
	}
	return nil
}

// streamNext times capture.StreamReader.Next over b: the whole decode
// stack the depths above take apart.
func (r *runner) streamNext(b []byte, root int) (ns int64, n int, err error) {
	sr, err := capture.NewStreamReader(bytes.NewReader(b))
	if err != nil {
		return 0, 0, err
	}
	var rec capture.Record
	for eof := false; !eof; {
		t0 := time.Now()
		k := 0
		for ; k < traceBlock; k++ {
			if rec, err = sr.Next(); err != nil {
				if err != io.EOF {
					return 0, 0, err
				}
				eof = true
				break
			}
		}
		t1 := time.Now()
		r.tr.add(depthSpan[depthNext], t0, t1, root, k)
		ns += int64(t1.Sub(t0))
		n += k
	}
	ledgerSink += rec.Size
	return ns, n, nil
}

// sliceSource replays decoded records, so MultiStream.Next can be timed
// without its sources' decode cost.
type sliceSource struct {
	recs []capture.Record
	i    int
}

func (s *sliceSource) Next() (capture.Record, error) {
	if s.i == len(s.recs) {
		return capture.Record{}, io.EOF
	}
	s.i++
	return s.recs[s.i-1], nil
}

// ledgerMerge times MultiStream.Next in MergeByTime mode over the
// monitors' already decoded records: the merge minus its sources.
func (r *runner) ledgerMerge(d *decodeTotals, rep *replica, root int) error {
	var srcs []capture.RecordSource
	for _, b := range rep.pcaps {
		tr, err := capture.ReadPcap(bytes.NewReader(b))
		if err != nil {
			return err
		}
		srcs = append(srcs, &sliceSource{recs: tr.Records})
	}
	ms := capture.NewMultiStream(capture.MergeByTime, false, srcs...)
	defer ms.Close()
	for eof := false; !eof; {
		t0 := time.Now()
		k := 0
		for ; k < traceBlock; k++ {
			if _, err := ms.Next(); err != nil {
				if err != io.EOF {
					return err
				}
				eof = true
				break
			}
		}
		t1 := time.Now()
		r.tr.add("capture.merge", t0, t1, root, k)
		d.mergeNs += int64(t1.Sub(t0))
		d.mergeRecs += k
	}
	return ms.Err()
}

// coreTotals is the core ledger: the clusterer and the window
// accumulator timed alone over the workload's decoded records.
type coreTotals struct {
	clusterNs, accNs int64
	clusterN, accN   int
}

func (r *runner) coreLedger() (*coreTotals, error) {
	c := &coreTotals{}
	root := r.tr.open("ledger.core")
	for _, rep := range r.in.replicas {
		if err := r.coreReplica(c, rep, root); err != nil {
			return nil, err
		}
	}
	r.tr.close(root, time.Now(), c.accN)
	return c, nil
}

func (r *runner) coreReplica(c *coreTotals, rep *replica, root int) error {
	sp := r.sp
	var cl *core.Clusterer
	if sp.cluster {
		cl = core.NewClusterer(core.DefaultClusterBindings)
	}
	discard := func(*core.WindowResult) {}
	var acc *core.WindowAccumulator
	if len(sp.cfgs) == 1 {
		acc = core.NewWindowAccumulator(sp.window, sp.cfgs[0], discard)
	} else {
		var err error
		if acc, err = core.NewEnsembleAccumulator(sp.window, sp.cfgs, discard); err != nil {
			return err
		}
	}
	src, done, err := source(rep)
	if err != nil {
		return err
	}
	grid := windowGrid{w: sp.window.Microseconds()}
	buf := make([]capture.Record, traceBlock)
	for eof := false; !eof; {
		k := 0
		for ; k < len(buf); k++ {
			if buf[k], err = src.Next(); err != nil {
				if err != io.EOF {
					return err
				}
				eof = true
				break
			}
		}
		if cl != nil {
			t0 := time.Now()
			for i := 0; i < k; i++ {
				buf[i].Sender = cl.Resolve(&buf[i])
			}
			t1 := time.Now()
			r.tr.add("core.cluster", t0, t1, root, k)
			c.clusterNs += int64(t1.Sub(t0))
			c.clusterN += k
		}
		closes := false
		for i := 0; i < k; i++ {
			closes = grid.advance(buf[i].T) || closes
		}
		t0 := time.Now()
		for i := 0; i < k; i++ {
			acc.Push(&buf[i])
		}
		t1 := time.Now()
		if closes {
			r.tr.add("core.accumulate_close", t0, t1, root, k)
			continue
		}
		r.tr.add("core.accumulate", t0, t1, root, k)
		c.accNs += int64(t1.Sub(t0))
		c.accN += k
	}
	acc.Flush()
	_, err = done()
	return err
}

// matchTotals is the match ledger: MatchAllWorkers (one worker) re-run
// on each window's candidates against the database that matched them
// in the pipeline.
type matchTotals struct {
	windows, cands, refs int
	ns                   int64
	pairs                float64
}

func (r *runner) matchLedger(windows []*windowCands) *matchTotals {
	m := &matchTotals{}
	root := r.tr.open("ledger.match")
	for _, wc := range windows {
		if wc == nil {
			continue
		}
		var refs, n int
		t0 := time.Now()
		switch {
		case wc.edb != nil && len(wc.multi) > 0:
			refs, n = wc.edb.Len(), len(wc.multi)
			fused, _ := wc.edb.MatchAllWorkers(wc.multi, 1)
			ledgerSink += len(fused)
		case wc.db != nil && len(wc.cands) > 0:
			refs, n = wc.db.Len(), len(wc.cands)
			ledgerSink += len(wc.db.MatchAllWorkers(wc.cands, 1))
		default:
			continue
		}
		t1 := time.Now()
		r.tr.add("core.match", t0, t1, root, n)
		m.windows++
		m.cands += n
		m.refs += refs
		m.ns += int64(t1.Sub(t0))
		m.pairs += float64(n) * float64(refs)
	}
	r.tr.close(root, time.Now(), m.cands)
	return m
}

// layerMetrics runs the ledgers, prints them with the decode residual
// and the tracing overhead, and returns the per-layer metrics.
func (r *runner) layerMetrics(cycles []*cycle) (map[string]metric, error) {
	var passes, traced []*pass
	var tracedFPS, untracedFPS []float64
	for _, c := range cycles {
		passes = append(passes, c.passes...)
		if c.traced {
			traced = append(traced, c.passes...)
			tracedFPS = append(tracedFPS, c.framesPerSec())
		} else {
			untracedFPS = append(untracedFPS, c.framesPerSec())
		}
	}
	var windows []*windowCands
	for _, p := range traced {
		if p.windows != nil {
			windows = p.windows
			break
		}
	}
	dec, err := r.decodeLedger()
	if err != nil {
		return nil, fmt.Errorf("decode ledger: %w", err)
	}
	cor, err := r.coreLedger()
	if err != nil {
		return nil, fmt.Errorf("core ledger: %w", err)
	}
	mat := r.matchLedger(windows)

	var records, published uint64
	var pushNs, sinkNs int64
	var liveMax, queueMax int
	var dropped, feedDropped, queries uint64
	var emit, steps, closes, loads, compiles []float64
	for _, p := range passes {
		closes = append(closes, float64(p.close))
		loads = append(loads, float64(p.load))
		compiles = append(compiles, float64(p.compile))
		dropped += p.dropped
		feedDropped += p.feedDropped + p.lost
		queries += p.queries
		published += p.published
		sinkNs += p.sinkNs
	}
	for _, p := range traced {
		records += p.records
		pushNs += p.pushNs
		liveMax = max(liveMax, p.liveMax)
		queueMax = max(queueMax, p.queueMax)
		emit = append(emit, p.emitNs...)
		steps = append(steps, p.trainerSteps...)
	}
	last := passes[len(passes)-1]
	lag50, lag99, _ := r.verdictLags(cycles)
	readerCPU, _ := r.readerShare(cycles)
	per := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	m := map[string]metric{
		"pcap.ns_per_record":          {per(dec.pcapNs, dec.records), "ns"},
		"pcap.allocs_per_record":      {float64(dec.pcapAllocs) / float64(dec.records), "count"},
		"radiotap.ns_per_record":      {per(dec.radiotapNs, dec.radiotapRecs), "ns"},
		"prism.ns_per_record":         {per(dec.prismNs, dec.prismRecs), "ns"},
		"dot11.ns_per_record":         {per(dec.dot11Ns, dec.records), "ns"},
		"dot11.elems_ns_per_mgmt":     {per(dec.elemsNs, dec.mgmt), "ns"},
		"capture.next_ns_per_record":  {per(dec.nextNs, dec.records), "ns"},
		"capture.self_ns_per_record":  {per(dec.nextNs-dec.pcapNs-dec.radiotapNs-dec.prismNs-dec.dot11Ns, dec.records), "ns"},
		"capture.merge_ns_per_record": {per(dec.mergeNs, dec.mergeRecs), "ns"},

		"cluster.ns_per_record": {per(cor.clusterNs, cor.clusterN), "ns"},
		"cluster.devices":       {float64(last.clusterDevices), "count"},
		"cluster.bindings":      {float64(last.clusterBinds), "count"},
		"cluster.rebound":       {float64(last.clusterRebound), "count"},

		"accumulate.ns_per_record":    {per(cor.accNs, cor.accN), "ns"},
		"accumulate.live_senders_max": {float64(liveMax), "count"},
		"accumulate.evicted":          {float64(last.evicted), "count"},

		"match.ms_per_window":         {ms(per(mat.ns, mat.windows)), "ms"},
		"match.candidates_per_window": {per(int64(mat.cands), mat.windows), "count"},
		"match.references":            {per(int64(mat.refs), mat.windows), "count"},
		"match.ns_per_pair":           {0, "ns"},

		"codec.load_ms": {ms(median(loads)), "ms"},
		"compile.ms":    {ms(median(compiles)), "ms"},
		"index.bytes":   {float64(last.index.IndexBytes), "bytes"},
		"dense.bytes":   {float64(last.index.DenseBytes), "bytes"},

		"engine.push_ns_per_record":      {per(pushNs, int(records)), "ns"},
		"engine.close_ms":                {ms(median(closes)), "ms"},
		"engine.queue_depth_max":         {float64(queueMax), "count"},
		"engine.emit_ms_per_window":      {ms(mean(emit)), "ms"},
		"engine.dropped_frames":          {float64(dropped), "count"},
		"engine.verdict_lag_p50_ms":      {lag50, "ms"},
		"engine.verdict_lag_p99_ms":      {lag99, "ms"},
		"trainer.step_ms":                {ms(mean(steps)), "ms"},
		"trainer.swaps":                  {float64(last.trainer.Swaps), "count"},
		"trainer.refs":                   {float64(last.trainer.Refs), "count"},
		"trainer.pending":                {float64(last.trainer.Pending), "count"},
		"server.sink_ns_per_event":       {per(sinkNs, int(published)), "ns"},
		"server.feed_dropped":            {float64(feedDropped), "count"},
		"server.queries":                 {float64(queries), "count"},
		"server.query_generator_late_ms": {ms(quantile(r.late.values(), 0.99)), "ms"},
		"server.query_latency_p50_ms":    {ms(quantile(r.query.values(), 0.50)), "ms"},
		"server.query_latency_p99_ms":    {ms(quantile(r.query.values(), 0.99)), "ms"},
		"server.feed_lag_p99_ms":         {ms(quantile(r.feed.values(), 0.99)), "ms"},
		"server.read_cpu_us":             {float64(r.readCPU) / 1e3, "us"},
		"server.reader_cpu_pct":          {readerCPU, "%"},

		"trace.frames_per_s":          {median(tracedFPS), "1/s"},
		"trace.untraced_frames_per_s": {median(untracedFPS), "1/s"},
		"trace.overhead_pct":          {100 * (median(untracedFPS)/median(tracedFPS) - 1), "%"},
	}
	if mat.pairs > 0 {
		m["match.ns_per_pair"] = metric{float64(mat.ns) / mat.pairs, "ns"}
	}

	fmt.Printf("%s seed %d: traced run, %d cycles (%d traced) over %d replicas\n",
		r.sp.name, r.seed, len(cycles), len(traced)/len(r.in.replicas), len(r.in.replicas))
	r.tr.printLedger()
	sum := m["pcap.ns_per_record"].Value + per(dec.radiotapNs+dec.prismNs, dec.records) + m["dot11.ns_per_record"].Value
	next := m["capture.next_ns_per_record"].Value
	fmt.Printf("  decode ledger (by depth difference): pcap %.1f + radiotap/prism %.1f + dot11 %.1f = %.1f ns/record; StreamReader.Next %.1f ns/record; residual %.1f ns/record (%.1f%% of Next)\n",
		m["pcap.ns_per_record"].Value, per(dec.radiotapNs+dec.prismNs, dec.records), m["dot11.ns_per_record"].Value,
		sum, next, next-sum, 100*(next-sum)/next)
	fmt.Printf("  tracing overhead: traced %.0f frames/s vs untraced %.0f frames/s (%.1f%%)\n",
		median(tracedFPS), median(untracedFPS), m["trace.overhead_pct"].Value)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
