package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/simnet"
	"github.com/pcelisp/pcelisp/internal/workload"
)

// sim-flows inputs: a PCE-CP world of simDomains x simHosts hosts with
// drop-policy ITRs, built from the fixed simWorldSeed so that every run
// measures the same topology, and a Poisson stream of flows at simRate per
// simulated second drawn from the run's seed: sources uniform,
// destinations Zipf(simSkew) over a fixed popularity ranking of every
// host. simRate is the arrival rate of experiment E9a, whose Zipf/Poisson
// stream also runs over 512 destinations. The stream arrives in rounds of simRound flows: each round's
// arrivals are all registered through World.At before the round runs, and
// the timed phase runs whole rounds. (Registering a whole run's stream up
// front made the cost of a flow depend on how far the run got, since every
// barrier callback scans all outstanding ones, so runs of equal length
// did unequal work.)
const (
	simWorldSeed = 1
	simDomains   = 32
	simHosts     = 16
	simRound     = 4096
	simRate      = 200.0
	simSkew      = 1.1
	simSegments  = 16 // data segments per flow, alternating the two sizes
	simSegSmall  = 64 // bytes
	simSegLarge  = 1200
	simSetups    = 9 // worlds built to time set-up; the median is reported
	simChunk     = 100 * time.Millisecond
	simDrain     = 5 * time.Second // simulated time for in-flight flows to end
	// simDigestFlows bounds the determinism digest: it covers the flows
	// among the first simDigestFlows arrivals that completed before the
	// next arrival, so any world of the same seed reproduces it.
	simDigestFlows = 1024
	// simWarmRounds fill the DNS and PCE caches; they run and are checked
	// but the per-round medians leave them out.
	simWarmRounds = 2
	// simRSSRounds is the round after which peak_rss_mb is read; every run
	// runs at least this many.
	simRSSRounds = 4
)

// simFlow is one generated arrival.
type simFlow struct {
	at         simnet.Time // offset from the round's first arrival
	srcD, srcH int
	dstD, dstH int
}

// simStream draws the arrival stream from the seed alone.
type simStream struct {
	rng        *rand.Rand
	popularity []int // rank -> host index
	zipf       *workload.Zipf
	arrivals   *workload.Poisson
}

func newSimStream(seed int64) *simStream {
	// Which host is how popular belongs to the world, like its topology;
	// the seed draws the stream.
	hosts := simDomains * simHosts
	rng := rand.New(rand.NewSource(seed))
	st := &simStream{rng: rng, popularity: rand.New(rand.NewSource(simWorldSeed)).Perm(hosts)}
	st.zipf = workload.NewZipf(rng, hosts, simSkew)
	st.arrivals = workload.NewPoisson(rng, simRate)
	return st
}

// next draws n more arrivals, timed from the first of them.
func (st *simStream) next(n int) []simFlow {
	flows := make([]simFlow, n)
	var at simnet.Time
	for i := range flows {
		if i > 0 {
			at += st.arrivals.Next()
		}
		src := st.rng.Intn(simDomains * simHosts)
		dst := st.popularity[st.zipf.Next()]
		for dst/simHosts == src/simHosts { // inter-domain flows only
			dst = st.popularity[st.zipf.Next()]
		}
		flows[i] = simFlow{at: at, srcD: src / simHosts, srcH: src % simHosts, dstD: dst / simHosts, dstH: dst % simHosts}
	}
	return flows
}

// simRun is one world driven by the stream.
type simRun struct {
	w      *experiments.World
	stream *simStream

	flows    []simFlow // every arrival registered so far
	results  []experiments.FlowResult
	atAnswer []answerState // the source ITR's state when the DNS answer arrived
	doneAt   []simnet.Time // simulated completion time per flow
	hostT0   []time.Time
	hostLat  []time.Duration
	finished int
	peakPend int
	origin0  simnet.Time // simulated time of the first arrival

	// answers queues, per (source, destination) EID pair, whether the
	// source ITR held a mapping for the flow when each DNS answer reached
	// the source host; a flow's completion takes the oldest entry of its
	// pair.
	answers map[[2]netaddr.Addr][]bool
	// repeats counts flows whose pair an earlier flow of the run already
	// used, so their ITR may hold the tuple from before their own lookup.
	repeats int
	seen    map[[2]netaddr.Addr]bool
	// cacheOnly counts answers that found no flow tuple but a map-cache
	// entry covering the destination.
	cacheOnly int

	onDone func(i int) // traced runs: span hook (nil otherwise)
}

// answerState is what the source ITR held when a flow's DNS answer
// reached its host.
type answerState uint8

const (
	answerUnseen   answerState = iota // no answer seen at the host
	answerReady                       // the ITR held a mapping for the flow
	answerNotReady                    // the ITR held none
)

func buildSimRun(seed int64) *simRun {
	w := experiments.BuildWorld(experiments.WorldConfig{
		CP:             experiments.CPPCE,
		Domains:        simDomains,
		HostsPerDomain: simHosts,
		MissPolicy:     lisp.MissDrop,
		Seed:           simWorldSeed,
		Shards:         1,
	})
	w.Settle()
	r := &simRun{w: w, stream: newSimStream(seed),
		answers: make(map[[2]netaddr.Addr][]bool), seen: make(map[[2]netaddr.Addr]bool)}
	r.watchAnswers()
	return r
}

// watchAnswers adds a sniffer to every host node that, when a DNS answer
// arrives, records whether the source domain's xTRs can already
// encapsulate toward the answered address: the paper's claim (ii),
// checked per flow where the packet will leave.
func (r *simRun) watchAnswers() {
	for _, d := range r.w.In.Domains {
		xtrs := d.XTRs
		for _, h := range d.Hosts {
			src := h.Addr
			h.Node.AddSniffer(func(dv *simnet.Delivery) simnet.SnifferVerdict {
				sport, _, payload, ok := packet.PeekUDPPayload(dv.Data)
				if !ok || sport != packet.PortDNS {
					return simnet.SnifferPass
				}
				var msg packet.DNS
				if msg.DecodeFromBytes(payload) != nil || !msg.QR {
					return simnet.SnifferPass
				}
				dst, ok := msg.FirstA()
				if !ok {
					return simnet.SnifferPass
				}
				ready := flowHeld(xtrs, src, dst)
				if !ready && cacheHolds(xtrs, dst) {
					ready = true
					r.cacheOnly++
				}
				k := [2]netaddr.Addr{src, dst}
				r.answers[k] = append(r.answers[k], ready)
				return simnet.SnifferPass
			})
		}
	}
}

// flowHeld reports whether one of xtrs holds the (src, dst) flow tuple.
func flowHeld(xtrs []*lisp.XTR, src, dst netaddr.Addr) bool {
	for _, x := range xtrs {
		if _, ok := x.Flows.Lookup(lisp.FlowKey{Src: src, Dst: dst}); ok {
			return true
		}
	}
	return false
}

// cacheHolds reports whether one of xtrs holds a live map-cache entry
// covering dst: the PCE pushes the destination prefix with every flow, so
// a later flow to the same site can leave on it. It reads the cache
// through Walk, which changes no cache state.
func cacheHolds(xtrs []*lisp.XTR, dst netaddr.Addr) bool {
	for _, x := range xtrs {
		now, found := x.Node().Sim().Now(), false
		x.Cache.Walk(func(p netaddr.Prefix, e *lisp.MapEntry) bool {
			found = p.Contains(dst) && !e.Negative && !e.Expired(now)
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// register draws the next round and registers every arrival of it.
func (r *simRun) register() (first int, origin simnet.Time) {
	first = len(r.flows)
	round := r.stream.next(simRound)
	r.flows = append(r.flows, round...)
	r.results = append(r.results, make([]experiments.FlowResult, simRound)...)
	r.atAnswer = append(r.atAnswer, make([]answerState, simRound)...)
	r.doneAt = append(r.doneAt, make([]simnet.Time, simRound)...)
	r.hostT0 = append(r.hostT0, make([]time.Time, simRound)...)
	origin = r.w.Now() + time.Millisecond
	if first == 0 {
		r.origin0 = origin
	}
	for k := range round {
		i := first + k
		r.w.At(origin+round[k].at, func() { r.arrive(i) })
	}
	return first, origin
}

func (r *simRun) arrive(i int) {
	f := r.flows[i]
	r.hostT0[i] = time.Now()
	r.w.StartFlow(f.srcD, f.srcH, f.dstD, f.dstH, func(res experiments.FlowResult) {
		r.hostLat = append(r.hostLat, time.Since(r.hostT0[i]))
		r.results[i] = res
		r.doneAt[i] = r.w.SimOf(f.srcD).Now()
		k := [2]netaddr.Addr{res.Src, res.Dst}
		if q := r.answers[k]; len(q) > 0 {
			r.atAnswer[i] = answerNotReady
			if q[0] {
				r.atAnswer[i] = answerReady
			}
			if len(q) == 1 {
				delete(r.answers, k)
			} else {
				r.answers[k] = q[1:]
			}
		}
		if r.seen[k] {
			r.repeats++
		}
		r.seen[k] = true
		r.finished++
		if res.OK {
			src := r.w.TCP[f.srcD][f.srcH]
			port := uint16(1024 + i%60000)
			for s := 0; s < simSegments; s++ {
				size := simSegSmall
				if s%2 == 1 {
					size = simSegLarge
				}
				src.SendData(res.Dst, port, 80, 1, size)
			}
		}
		if r.onDone != nil {
			r.onDone(i)
		}
	})
}

// runRound registers one round and runs the world until every flow of it
// has finished (or simDrain passes after its last arrival).
func (r *simRun) runRound() part {
	t0, cpu0, lat0 := time.Now(), cpuTime(), len(r.hostLat)
	_, origin := r.register()
	until := origin + r.flows[len(r.flows)-1].at + simDrain
	for r.finished < len(r.flows) && r.w.Now() < until {
		r.w.RunFor(simChunk)
		if p := r.w.Sharded.Pending(); p > r.peakPend {
			r.peakPend = p
		}
	}
	return part{wall: time.Since(t0), cpu: cpuTime() - cpu0, lat: r.hostLat[lat0:]}
}

// digest hashes the simulated results of the flows among the first
// simDigestFlows arrivals that completed before the next arrival.
func (r *simRun) digest() (uint64, int) {
	cut := r.origin0 + r.flows[simDigestFlows].at
	h := fnv.New64a()
	count := 0
	for i := 0; i < simDigestFlows; i++ {
		if r.doneAt[i] == 0 || r.doneAt[i] >= cut {
			continue
		}
		res := r.results[i]
		fmt.Fprintf(h, "%d %v %d %d %d %d %d %v %v|", i, res.OK, res.TDNS, res.Setup,
			res.Handshake, res.Retransmits, res.MappingReady, res.Src, res.Dst)
		count++
	}
	return h.Sum64(), count
}

// digestOnly registers the first round on a fresh world of the same seed
// and runs it to the digest cut-off: the reproduction check.
func (r *simRun) digestOnly() (uint64, int) {
	r.register()
	r.w.RunUntil(r.origin0 + r.flows[simDigestFlows].at - 1)
	return r.digest()
}

func runSimFlows(cfg runConfig) (*report, error) {
	rep := &report{}

	// Set-up: build and settle the world several times; the first world is
	// kept for the reproduction check, the last is timed.
	var setups []time.Duration
	var first, run *simRun
	for k := 0; k < simSetups; k++ {
		t0 := time.Now()
		r := buildSimRun(cfg.seed)
		setups = append(setups, time.Since(t0))
		if k == 0 {
			first = r
		}
		run = r
	}

	var tr *simTrace
	if cfg.trace {
		tr = newSimTrace(run, cfg)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	ph := startPhase()
	var parts []part
	var rssMB float64
	for len(parts) < simRSSRounds || time.Now().Before(deadline) {
		parts = append(parts, run.runRound())
		if len(parts) == simRSSRounds {
			rssMB = peakRSSMB()
		}
	}
	run.w.RunFor(simDrain) // deliver the last data segments
	totals := ph.end()

	rep.attempted = int64(len(run.flows))
	checkSimRun(rep, run)

	dig, count := run.digest()
	fmt.Printf("# sim-flows digest=%016x flows=%d rounds=%d\n", dig, count, len(parts))
	fmt.Printf("# sim-flows claim (ii): %d flows checked at the source ITR, %d of them on an (EID, EID) pair used before, %d ready on a map-cache entry alone\n",
		run.finished, run.repeats, run.cacheOnly)
	if d2, c2 := first.digestOnly(); d2 != dig || c2 != count {
		rep.fail("same-seed worlds disagree: digest %016x over %d flows vs %016x over %d", dig, count, d2, c2)
	}

	ops := int64(run.finished)
	if tr != nil {
		tr.finish(rep, totals, ops)
		return rep, nil
	}
	rep.setEndToEnd(medianDuration(setups), totals, ops, parts[simWarmRounds:], rssMB)
	return rep, nil
}

// checkSimRun applies sim-flows' output checks.
func checkSimRun(rep *report, r *simRun) {
	var oks, segs uint64 // oks: flows whose handshake completed, which send data
	for i := range r.flows {
		res := r.results[i]
		if r.doneAt[i] == 0 {
			rep.fail("flow %d never finished", i)
			rep.failed++
			continue
		}
		if res.OK {
			oks++
		}
		if err := checkFlowResult(res, r.atAnswer[i]); err != nil {
			rep.fail("flow %d: %v", i, err)
			rep.failed++
		}
	}
	for _, hosts := range r.w.TCP {
		for _, h := range hosts {
			segs += h.Stats.DataReceived
		}
	}
	rep.check(checkSegments(segs, oks*simSegments))
	rep.check(checkNoMissDrops(r.w.ITRDrops()))
}
