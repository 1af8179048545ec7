package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pcelisp/pcelisp/internal/lispd"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// daemon-setup inputs: setupClients closed-loop clients, each owning half
// of site A's EIDs and half of site B's; site B's zone holds setupNames
// generated names per client. Op i of a client uses the pair (EID
// i mod setupEIDs, name (i + i/setupEIDs) mod setupNames): setupEIDs+1 is
// odd and setupNames a power of two, so no pair repeats within
// setupNames*setupEIDs ops.
const (
	setupClients = 2
	setupNames   = 16384
	setupEIDs    = 32000
	setupUnit    = 256 // timed ops per client between two collision probes
	setupSetups  = 7
	setupWait    = 2 * time.Second
	// setupProbeQuiet is how long a probe waits for a frame that the
	// front end has already finished sending.
	setupProbeQuiet = 2 * time.Millisecond
	// setupRSSOps is the op count at which peak_rss_mb is read; every run
	// attempts at least this many timed ops.
	setupRSSOps = 16384
)

// setupClient is one client's share of the inputs.
type setupClient struct {
	idx   int
	names []string
	addrs []netaddr.Addr // zone address of each name
}

func (c *setupClient) eid(i int) netaddr.Addr {
	return eidAddr(1, c.idx<<15+1+i%setupEIDs)
}

func (c *setupClient) name(i int) (string, netaddr.Addr) {
	j := (i + i/setupEIDs) % setupNames
	return c.names[j], c.addrs[j]
}

// prefix is the client's half of a site's EID prefix.
func (c *setupClient) prefix(site int) netaddr.Prefix {
	return netaddr.PrefixFrom(eidAddr(site, c.idx<<15), 17)
}

func genSetup(seed int64) ([]*setupClient, []lispd.RecordConfig) {
	rng := rand.New(rand.NewSource(seed))
	var clients []*setupClient
	var records []lispd.RecordConfig
	for c := 0; c < setupClients; c++ {
		sc := &setupClient{idx: c}
		hosts := rng.Perm(1<<15 - 1)
		tag := rng.Uint32()
		for j := 0; j < setupNames; j++ {
			name := fmt.Sprintf("n%08x-%d-%d.d1.example", tag, c, j)
			addr := eidAddr(2, c<<15+1+hosts[j])
			sc.names = append(sc.names, name)
			sc.addrs = append(sc.addrs, addr)
			records = append(records, lispd.RecordConfig{Name: name, Addr: addr.String()})
		}
		clients = append(clients, sc)
	}
	return clients, records
}

// setupOp is one completed op's timeline (traced runs keep them).
type setupOp struct {
	sent, answered, delivered time.Duration // since the run's base
}

// setupWorker is one closed-loop client over its own socket.
type setupWorker struct {
	c    *setupClient
	ep   *endpoint
	next int // next op index
	id   uint16

	clock    *sliceClock                 // set for the timed phase
	lat      [slices + 1][]time.Duration // by completion slice
	ops      []setupOp                   // traced runs only, with the frames below
	capData  [][]byte
	capCtl   [][]byte
	flows    [][2]netaddr.Addr
	failed   int64
	problems []string
}

// op runs one flow setup: the DNS query, the answer, then the first data
// packet through site A's drop-policy ITR to the far host.
func (w *setupWorker) op(p *daemonPair, base time.Time, keep bool) {
	i := w.next
	w.next++
	w.id += setupClients // IDs stay distinct across the clients
	eid := w.c.eid(i)
	name, addr := w.c.name(i)
	to := p.a.RealAddr().AddrPort()

	t0 := time.Since(base)
	query := dnsQuery(eid, 5353, w.id, name)
	if err := w.ep.send(to, query); err != nil {
		w.fail("op %d: %v", i, err)
		return
	}
	frame, err := w.ep.recv(setupWait)
	if err == nil {
		err = checkDNSAnswer(frame, eid, w.id, name, addr)
	}
	if err != nil {
		w.fail("op %d answer: %v", i, err)
		return
	}
	t1 := time.Since(base)
	var payload [32]byte
	binary.BigEndian.PutUint64(payload[:], uint64(i))
	data := runtime.EncodeUDP(eid, addr, 40000, 9000, packet.Payload(payload[:]))
	if err := w.ep.send(to, data); err != nil {
		w.fail("op %d: %v", i, err)
		return
	}
	got, err := w.ep.recv(setupWait)
	if err == nil {
		err = checkDelivered(got, data)
	}
	if err != nil {
		w.fail("op %d first packet: %v", i, err)
		return
	}
	t2 := time.Since(base)
	if w.clock != nil {
		k := w.clock.index(t2)
		w.lat[k] = append(w.lat[k], t2-t0)
	}
	w.flows = append(w.flows, [2]netaddr.Addr{eid, addr})
	if keep {
		w.ops = append(w.ops, setupOp{sent: t0, answered: t1, delivered: t2})
		if len(w.capData) < captureLimit/2 {
			w.capData = append(w.capData, data)
			w.capCtl = append(w.capCtl, query, append([]byte(nil), frame...))
		}
	}
}

func (w *setupWorker) fail(format string, args ...any) {
	w.failed++
	if len(w.problems) < 5 {
		w.problems = append(w.problems, fmt.Sprintf("client %d: ", w.c.idx)+fmt.Sprintf(format, args...))
	}
}

// probe runs one DNS-ID collision op: both clients send a query with the
// same DNS ID for different names, back to back, while site B's loop is
// held so neither is answered before both are forwarded. It reports
// whether each client received its own answer.
func probe(p *daemonPair, ws []*setupWorker, id uint16) (bool, error) {
	held, release := make(chan struct{}), make(chan struct{})
	p.b.Loop().Post(func() {
		close(held)
		<-release
	})
	<-held
	base := p.a.FrontEndStats()
	type q struct {
		eid, addr netaddr.Addr
		name      string
	}
	qs := make([]q, len(ws))
	to := p.a.RealAddr().AddrPort()
	for k, w := range ws {
		i := w.next
		w.next++
		qs[k].eid = w.c.eid(i)
		qs[k].name, qs[k].addr = w.c.name(i)
		if err := w.ep.send(to, dnsQuery(qs[k].eid, 5353, id, qs[k].name)); err != nil {
			close(release)
			return false, err
		}
	}
	err := waitFor(func() bool { return p.a.FrontEndStats().Forwarded >= base.Forwarded+uint64(len(ws)) })
	close(release)
	if err != nil {
		return false, fmt.Errorf("probe queries not forwarded: %w", err)
	}
	err = waitFor(func() bool {
		st := p.a.FrontEndStats()
		return st.Returned+st.Orphaned >= base.Returned+base.Orphaned+uint64(len(ws))
	})
	if err != nil {
		return false, fmt.Errorf("probe replies not handled: %w", err)
	}
	onLoop(p.a, func() {}) // the last relay has left site A
	ok := true
	for k, w := range ws {
		frame, err := w.ep.recv(setupProbeQuiet)
		if err != nil || checkDNSAnswer(frame, qs[k].eid, id, qs[k].name, qs[k].addr) != nil {
			ok = false
		}
	}
	return ok, nil
}

// waitFor polls cond until it holds or setupWait passes.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(setupWait)
	for !cond() {
		if time.Now().After(deadline) {
			return errTimeout
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

func runDaemonSetup(cfg runConfig) (*report, error) {
	rep := &report{}
	clients, records := genSetup(cfg.seed)
	var ws []*setupWorker
	for _, c := range clients {
		ep, err := newEndpoint()
		if err != nil {
			return nil, err
		}
		defer ep.Close()
		ws = append(ws, &setupWorker{c: c, ep: ep, id: uint16(c.idx)})
	}

	var tr *daemonTrace
	if cfg.trace {
		tr = newDaemonTrace(cfg, "daemon-setup")
	}
	// Set-up: assemble and start the pair, then prime it with one op per
	// client; repeated, and the last pair is timed.
	var setups []time.Duration
	var pair *daemonPair
	for k := 0; k < setupSetups; k++ {
		if pair != nil {
			pair.Close()
			goruntime.GC() // one pair's garbage at a time, so peak RSS is the timed pair's
		}
		t0 := time.Now()
		var hook func(*daemonPair)
		if tr != nil && k == setupSetups-1 {
			hook = tr.attach
		}
		var err error
		pair, err = startPair(records, hook)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			pair.a.SetPeer(w.c.prefix(1), w.ep.addr())
			pair.b.SetPeer(w.c.prefix(2), w.ep.addr())
			w.next, w.flows = 0, w.flows[:0]
			w.op(pair, t0, false)
			if w.failed != 0 {
				pair.Close()
				return nil, fmt.Errorf("priming: %v", w.problems)
			}
		}
		setups = append(setups, time.Since(t0))
	}
	defer pair.Close()
	// Timed phase: each client runs whole units of setupUnit ops until the
	// deadline.
	units := make([]int, len(ws))
	var wg sync.WaitGroup
	var before layerCounts
	if tr != nil {
		before = tr.counts(pair)
	}
	var opsDone atomic.Int64
	var rssMB float64 // written once, by the worker completing op setupRSSOps
	ph := startPhase()
	clock := startSliceClock(cfg.seconds)
	base := clock.base
	deadline := base.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k, w := range ws {
		w.clock = clock
		wg.Add(1)
		go func(k int, w *setupWorker) {
			defer wg.Done()
			for time.Now().Before(deadline) || opsDone.Load() < setupRSSOps {
				for n := 0; n < setupUnit; n++ {
					w.op(pair, base, tr != nil)
					if opsDone.Add(1) == setupRSSOps {
						rssMB = peakRSSMB()
					}
				}
				units[k]++
			}
		}(k, w)
	}
	wg.Wait()
	totals := ph.end()
	var timed layerCounts
	if tr != nil {
		timed = tr.counts(pair).minus(before)
	}

	var lat [slices + 1][]time.Duration
	var want [][2]netaddr.Addr
	var timedOps, ops int64
	for k, w := range ws {
		for s := range lat {
			lat[s] = append(lat[s], w.lat[s]...)
			ops += int64(len(w.lat[s]))
		}
		want = append(want, w.flows...)
		timedOps += int64(units[k] * setupUnit)
		rep.failed += w.failed
		for _, p := range w.problems {
			rep.fail("%s", p)
		}
	}
	rep.check(checkFlowTable(pair.flowTable(), want))
	rep.check(checkNoMissDrops(pair.a.XTR().Stats().CacheMissDrops))
	rep.check(pair.checkOverlay())

	// Untimed DNS-ID collision probe: one op per unit run, so failures are
	// a fixed share of the ops attempted.
	probes := 0
	for _, u := range units {
		probes += u
	}
	for n := 0; n < probes; n++ {
		ok, err := probe(pair, ws, uint16(0xf000+n%0x0fff))
		if err != nil {
			rep.fail("probe %d: %v", n, err)
		}
		if !ok {
			rep.failed++
		}
	}
	rep.attempted = timedOps + int64(probes)
	fmt.Printf("# daemon-setup probe: %d collision ops, %d timed ops\n", probes, timedOps)

	if tr != nil {
		tr.finishSetup(rep, pair, ws, timed, totals, ops)
		return rep, nil
	}
	rep.setEndToEnd(medianDuration(setups), totals, ops, clock.parts(lat[:]), rssMB)
	return rep, nil
}
