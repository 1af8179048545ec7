package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/lispd"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/obs"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// Traced runs record three kinds of measurement: spans at the
// benchmark's own socket and callback boundaries, each layer's public
// counters read after the run, and the replay ledger (ledger.go). The
// end-to-end metrics always come from untraced runs.

const (
	captureLimit = 512   // frames kept per class for the replay ledger
	spanLimit    = 20000 // spans written out per run
)

// span is one timed interval at a benchmark boundary. Spans of one op
// share Op; Parent names the enclosing span ("" for the op itself).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes the spans as JSON lines under dir; a failure is
// reported on standard error and does not fail the run.
func writeSpans(dir, name string, spans []span) {
	if dir == "" || len(spans) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pcebench: span log:", err)
		return
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcebench: span log:", err)
		return
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "pcebench: span log:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pcebench: span log:", err)
	}
	fmt.Printf("# spans: %d written to %s\n", len(spans), path)
}

// perOp divides a count by the op count.
func perOp(v uint64, ops int64) float64 {
	if ops < 1 {
		ops = 1
	}
	return float64(v) / float64(ops)
}

// layerCounts is the public counter set summed over a run's components.
type layerCounts struct {
	frames                      uint64 // simnet DeliveredPackets
	encaps, decaps              uint64
	ipc, pushes, cacheHitPushes uint64
	ctlMsgs, ctlBytes           uint64
	dnsForwarded                uint64
	rx, tx, consumed            uint64
}

// minus is the counts accumulated since o was read.
func (c layerCounts) minus(o layerCounts) layerCounts {
	return layerCounts{
		frames:         c.frames - o.frames,
		encaps:         c.encaps - o.encaps,
		decaps:         c.decaps - o.decaps,
		ipc:            c.ipc - o.ipc,
		pushes:         c.pushes - o.pushes,
		cacheHitPushes: c.cacheHitPushes - o.cacheHitPushes,
		ctlMsgs:        c.ctlMsgs - o.ctlMsgs,
		ctlBytes:       c.ctlBytes - o.ctlBytes,
		dnsForwarded:   c.dnsForwarded - o.dnsForwarded,
		rx:             c.rx - o.rx,
		tx:             c.tx - o.tx,
		consumed:       c.consumed - o.consumed,
	}
}

func (c layerCounts) set(rep *report, ops int64) {
	rep.set("simnet.frames_per_op", "count", perOp(c.frames, ops))
	rep.set("lisp.encaps_per_op", "count", perOp(c.encaps, ops))
	rep.set("lisp.decaps_per_op", "count", perOp(c.decaps, ops))
	rep.set("core.ipc_queries_per_op", "count", perOp(c.ipc, ops))
	rep.set("core.mapping_pushes_per_op", "count", perOp(c.pushes, ops))
	rep.set("core.cache_hit_pushes_per_op", "count", perOp(c.cacheHitPushes, ops))
	rep.set("core.ctl_msgs_per_op", "count", perOp(c.ctlMsgs, ops))
	rep.set("core.ctl_bytes_per_op", "B", perOp(c.ctlBytes, ops))
	rep.set("lispd.dns_forwarded_per_op", "count", perOp(c.dnsForwarded, ops))
	rep.set("overlay.rx_frames_per_op", "count", perOp(c.rx, ops))
	rep.set("overlay.tx_frames_per_op", "count", perOp(c.tx, ops))
	rep.set("overlay.consumed_per_op", "count", perOp(c.consumed, ops))
}

// setStages fills the daemon-setup stage split (zero elsewhere).
func setStages(rep *report, dns, first []time.Duration) {
	d, f := latencySummary(dns), latencySummary(first)
	rep.set("stage.dns_answer_p50_us", "us", d.Quantile(0.50))
	rep.set("stage.dns_answer_p99_us", "us", d.Quantile(0.99))
	rep.set("stage.first_packet_p50_us", "us", f.Quantile(0.50))
	rep.set("stage.first_packet_p99_us", "us", f.Quantile(0.99))
}

// setTraceCost records the traced run's own CPU per op — set beside the
// untraced cpu_us_per_op it gives the tracing overhead — and its op p99,
// a tail too unsteady on a shared machine to gate (op_p90_us is gated).
func setTraceCost(rep *report, t phaseTotals, ops int64, lat []time.Duration) {
	rep.set("trace.cpu_us_per_op", "us", float64(t.cpu.Nanoseconds())/1e3/float64(max(ops, 1)))
	rep.set("trace.op_p99_us", "us", latencySummary(lat).Quantile(0.99))
}

// setReplaySum adds ledger.replay_us_per_op: each replayed layer's cost
// per call times that layer's calls per op, as its own counter reports
// them ("" = once per op).
func setReplaySum(rep *report, terms [][2]string) {
	sum := 0.0
	for _, t := range terms {
		calls := 1.0
		if t[1] != "" {
			calls = rep.metrics[t[1]].Value
		}
		sum += rep.metrics[t[0]].Value * calls
	}
	rep.set("ledger.replay_us_per_op", "us", sum/1e3)
}

// simTrace instruments one sim-flows world.
type simTrace struct {
	run    *simRun
	before layerCounts // counters at the start of the timed phase
	base   time.Time
	frames map[string][][]byte
	spans  []span
	outDir string
	name   string
}

func newSimTrace(r *simRun, cfg runConfig) *simTrace {
	t := &simTrace{run: r, base: time.Now(), frames: make(map[string][][]byte),
		outDir: cfg.outDir, name: fmt.Sprintf("sim-flows-seed%d", cfg.seed), before: simCounts(r.w)}
	d0 := r.w.In.Domains[0]
	sniff := func(d *simnet.Delivery) simnet.SnifferVerdict {
		cls := frameClass(d.Data)
		if len(t.frames[cls]) < captureLimit {
			t.frames[cls] = append(t.frames[cls], append([]byte(nil), d.Data...))
		}
		return simnet.SnifferPass
	}
	d0.Router.AddSniffer(sniff)
	for _, x := range d0.XTRs {
		x.Node().AddSniffer(sniff)
	}
	r.onDone = func(i int) {
		if len(t.spans) < spanLimit {
			start := r.hostT0[i].Sub(t.base).Nanoseconds()
			t.spans = append(t.spans, span{Op: i, Name: "flow", Start: start, End: time.Since(t.base).Nanoseconds()})
		}
	}
	return t
}

// simCounts reads a world's public counters; a traced run reports their
// growth from the start of the timed phase, so the world's settling is
// not counted.
func simCounts(w *experiments.World) layerCounts {
	var c layerCounts
	for _, n := range w.Sim.Nodes() {
		for _, ifc := range n.Ifaces() {
			c.frames += ifc.Counters().DeliveredPackets
		}
	}
	for _, d := range w.In.Domains {
		for _, x := range d.XTRs {
			st := x.Stats()
			c.encaps += st.EncapPackets
			c.decaps += st.DecapPackets
		}
	}
	for _, p := range w.PCEs {
		st := p.Stats()
		c.ipc += st.IPCQueries
		c.pushes += st.MappingPushes
		c.cacheHitPushes += st.CacheHitPushes
		c.ctlMsgs += st.TxControlMessages
		c.ctlBytes += st.TxControlBytes
	}
	return c
}

func (t *simTrace) finish(rep *report, totals phaseTotals, ops int64) {
	w := t.run.w
	simCounts(w).minus(t.before).set(rep, ops)
	setStages(rep, nil, nil)
	rep.setGC(totals, ops)
	setTraceCost(rep, totals, ops, t.run.hostLat)

	d0 := w.In.Domains[0]
	var dsts []netaddr.Addr
	for i := 0; i < len(t.run.flows) && len(dsts) < replayCalls; i++ {
		f := t.run.flows[i]
		dsts = append(dsts, w.In.Domains[f.dstD].Hosts[f.dstH].Addr)
	}
	l := &ledger{
		data: t.frames["data"], ctl: append(t.frames["dns"], t.frames["pcecp"]...), lisp: t.frames["lisp"],
		site: d0.EIDPrefix, pceAddr: d0.PCEAddr, dnsAddr: d0.Resolver.Addr(),
		dsts: dsts, sim: true, eventDepth: t.run.peakPend, barrierDepth: simRound,
	}
	l.run(rep)
	setReplaySum(rep, [][2]string{
		{"simnet.event_ns", "simnet.frames_per_op"},
		{"packet.encap_ns", "lisp.encaps_per_op"},
		{"lisp.cache_lookup_ns", "lisp.encaps_per_op"},
		{"simnet.barrier_ns", ""},
	})
	writeSpans(t.outDir, t.name, t.spans)
}

// daemonTrace instruments one daemon pair.
type daemonTrace struct {
	capB   *capture
	outDir string
	name   string
}

func newDaemonTrace(cfg runConfig, workload string) *daemonTrace {
	return &daemonTrace{capB: newCapture(captureLimit), outDir: cfg.outDir,
		name: fmt.Sprintf("%s-seed%d", workload, cfg.seed)}
}

// attach adds the capture sniffer to site B before the pair starts; it
// sees the tunneled frames arriving and the PCECP replies leaving.
func (t *daemonTrace) attach(p *daemonPair) { p.b.Host().AddFrameSniffer(t.capB.sniffer()) }

// counts reads both daemons' public counters. The DNS front end's count
// comes through the metrics registry, as the admin endpoint serves it.
// Workloads read them at the start and the end of the timed phase and
// report the difference, so priming and probe ops are not counted.
func (t *daemonTrace) counts(p *daemonPair) layerCounts {
	var c layerCounts
	for _, d := range []*lispd.Daemon{p.a, p.b} {
		var xs lisp.XTRStats
		onLoop(d, func() { xs = d.XTR().Stats() })
		c.encaps += xs.EncapPackets
		c.decaps += xs.DecapPackets
		ps := d.PCE().Stats()
		c.ipc += ps.IPCQueries
		c.pushes += ps.MappingPushes
		c.cacheHitPushes += ps.CacheHitPushes
		c.ctlMsgs += ps.TxControlMessages
		c.ctlBytes += ps.TxControlBytes
		hs := d.Host().Stats()
		c.rx += hs.RxFrames
		c.tx += hs.TxFrames
		c.consumed += hs.Consumed
		if v, ok := d.Registry().Value("pcelisp_dnsfe_forwarded_total", obs.Label{Key: "node", Value: d.Host().HostName()}); ok {
			c.dnsForwarded += uint64(v)
		}
	}
	return c
}

// ledger builds the replay input from the frames the benchmark sent and
// received at its sockets plus those site B's sniffer captured.
func (t *daemonTrace) ledger(data, ctl [][]byte, dsts []netaddr.Addr) *ledger {
	return &ledger{
		data: data, ctl: append(ctl, append(t.capB.frames["dns"], t.capB.frames["pcecp"]...)...), lisp: t.capB.frames["lisp"],
		site: netaddr.MustParsePrefix("100.1.0.0/16"), pceAddr: pceAddr, dnsAddr: dnsA,
		authKey: []byte(planeKey), dsts: dsts,
	}
}

// daemonReplayTerms maps each replayed daemon layer to its calls per op.
var daemonReplayTerms = [][2]string{
	{"runtime.post_ns", "overlay.rx_frames_per_op"},
	{"overlay.output_ns", "overlay.tx_frames_per_op"},
	{"core.sniff_data_ns", "overlay.rx_frames_per_op"},
	{"lisp.intercept_ns", "lisp.encaps_per_op"},
}

func (t *daemonTrace) finishForward(rep *report, p *daemonPair, in fwdInputs, timed layerCounts, totals phaseTotals, ops int64, lat []time.Duration, spans []span) {
	timed.set(rep, ops)
	setStages(rep, nil, nil)
	rep.setGC(totals, ops)
	setTraceCost(rep, totals, ops, lat)
	var ctl [][]byte
	var dsts []netaddr.Addr
	for k, f := range in.flows {
		ctl = append(ctl, dnsQuery(f.src, 5353, uint16(k+1), f.name))
		dsts = append(dsts, f.dst)
	}
	p.Close() // the capture is read only after site B's loop has stopped
	t.ledger(in.ring, ctl, dsts).run(rep)
	setReplaySum(rep, daemonReplayTerms)
	writeSpans(t.outDir, t.name, spans)
}

func (t *daemonTrace) finishSetup(rep *report, p *daemonPair, ws []*setupWorker, timed layerCounts, totals phaseTotals, ops int64) {
	timed.set(rep, ops)
	var dns, first, lat []time.Duration
	var spans []span
	var data, ctl [][]byte
	var dsts []netaddr.Addr
	for _, w := range ws {
		for k, o := range w.ops {
			dns = append(dns, o.answered-o.sent)
			first = append(first, o.delivered-o.answered)
			lat = append(lat, o.delivered-o.sent)
			if len(spans) < spanLimit {
				op := w.c.idx<<24 | k
				spans = append(spans,
					span{Op: op, Name: "setup", Start: int64(o.sent), End: int64(o.delivered)},
					span{Op: op, Name: "dns_answer", Parent: "setup", Start: int64(o.sent), End: int64(o.answered)},
					span{Op: op, Name: "first_packet", Parent: "setup", Start: int64(o.answered), End: int64(o.delivered)})
			}
		}
		data = append(data, w.capData...)
		ctl = append(ctl, w.capCtl...)
		for _, f := range w.flows {
			dsts = append(dsts, f[1])
		}
	}
	setStages(rep, dns, first)
	rep.setGC(totals, ops)
	setTraceCost(rep, totals, ops, lat)
	p.Close()
	t.ledger(data, ctl, dsts).run(rep)
	setReplaySum(rep, daemonReplayTerms)
	writeSpans(t.outDir, t.name, spans)
}
