package main

import (
	goruntime "runtime"
	"time"

	"github.com/pcelisp/pcelisp/internal/core"
	"github.com/pcelisp/pcelisp/internal/irc"
	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/overlay"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
	"github.com/pcelisp/pcelisp/internal/simnet"
)

// The replay ledger: frames a traced run captured at the benchmark's own
// sockets and sniffers are replayed through each layer's public entry
// point, one timed call at a time with its allocations counted. The xTR
// and PCE it replays through are assembled here over replayHost, so no
// running daemon or world is disturbed.

// replayCalls is how many calls each replay times (cycling its frames).
const replayCalls = 20000

// ledger is one traced run's replay input.
type ledger struct {
	data [][]byte // inner data frames leaving the site
	ctl  [][]byte // DNS and PCECP frames
	lisp [][]byte // LISP-encapsulated frames

	site    netaddr.Prefix // the replay xTR/PCE's own EID prefix
	pceAddr netaddr.Addr
	dnsAddr netaddr.Addr
	authKey []byte
	dsts    []netaddr.Addr // the run's destination EIDs

	sim          bool // replay simnet (sim-flows) or runtime/overlay (daemons)
	eventDepth   int  // pending events at sim-flows' peak
	barrierDepth int  // barrier callbacks sim-flows registers
}

// replayHost is a minimal runtime.Host: it owns a set of addresses and
// discards everything the replayed layers emit.
type replayHost struct {
	addrs map[netaddr.Addr]bool
}

func newReplayHost(addrs ...netaddr.Addr) *replayHost {
	h := &replayHost{addrs: make(map[netaddr.Addr]bool)}
	for _, a := range addrs {
		h.addrs[a] = true
	}
	return h
}

func (h *replayHost) HostName() string                         { return "replay" }
func (h *replayHost) HasAddr(a netaddr.Addr) bool              { return h.addrs[a] }
func (h *replayHost) EgressByAddr(netaddr.Addr) runtime.Egress { return nil }
func (h *replayHost) AddrUp(a netaddr.Addr) bool               { return h.addrs[a] }
func (h *replayHost) RouteUp(netaddr.Addr) bool                { return true }
func (h *replayHost) Output([]byte) error                      { return nil }
func (h *replayHost) OutputVia(runtime.Egress, []byte)         {}
func (h *replayHost) OutputUDP(src, dst netaddr.Addr, sport, dport uint16, app ...packet.SerializableLayer) int {
	return len(runtime.EncodeUDP(src, dst, sport, dport, app...))
}
func (h *replayHost) BindUDP(netaddr.Addr, uint16, runtime.UDPHandler) {}
func (h *replayHost) BindUDPRaw(uint16, runtime.RawUDPHandler)         {}
func (h *replayHost) AddFrameSniffer(runtime.FrameSniffer)             {}
func (h *replayHost) JoinGroup(netaddr.Addr)                           {}

var _ runtime.Host = (*replayHost)(nil)

// measure times calls of fn(i) for i in [0, n) and returns ns and
// allocations per call.
func measure(n int, fn func(i int)) (ns, allocs float64) {
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	goruntime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// replayAll times fn over frames, cycling them; zero when none were
// captured.
func replayAll(frames [][]byte, fn func([]byte)) (ns, allocs float64) {
	if len(frames) == 0 {
		return 0, 0
	}
	return measure(replayCalls, func(i int) { fn(frames[i%len(frames)]) })
}

// run replays every layer and records the per-layer metrics.
func (l *ledger) run(rep *report) {
	loop := runtime.NewLoop(1) // never started: a clock, a seeded RNG and an inert timer heap
	all := append(append(append([][]byte(nil), l.data...), l.ctl...), l.lisp...)

	ns, allocs := replayAll(all, func(f []byte) {
		pk := packet.NewPacket(f, packet.LayerTypeIPv4, packet.Default)
		_ = pk.Layers()
	})
	rep.set("packet.decode_ns", "ns", ns)
	rep.set("packet.decode_allocs", "count", allocs)

	// Serialize the decoded layers of every frame the codec can rebuild.
	var stacks [][]packet.SerializableLayer
	for _, f := range all {
		if s := serializable(f); s != nil {
			stacks = append(stacks, s)
		}
	}
	ns, allocs = 0, 0
	if len(stacks) > 0 {
		ns, allocs = measure(replayCalls, func(i int) { packet.Serialize(stacks[i%len(stacks)]...) })
	}
	rep.set("packet.serialize_ns", "ns", ns)
	rep.set("packet.serialize_allocs", "count", allocs)

	tmpl := packet.NewEncapTemplate(netaddr.AddrFrom4(10, 0, 0, 1), netaddr.AddrFrom4(10, 1, 0, 1), packet.PortLISPData, packet.PortLISPData)
	ns, allocs = replayAll(l.data, func(f []byte) { tmpl.Encap(f, 0x123456) })
	rep.set("packet.encap_ns", "ns", ns)
	rep.set("packet.encap_allocs", "count", allocs)

	// The ITR with the run's flows installed.
	host := newReplayHost(netaddr.AddrFrom4(10, 0, 0, 1), l.pceAddr, l.dnsAddr)
	xtr := lisp.NewXTR(loop, host, lisp.XTRConfig{
		RLOC:      netaddr.AddrFrom4(10, 0, 0, 1),
		LocalEIDs: l.site,
		EIDSpace:  netaddr.MustParsePrefix("100.0.0.0/8"),
	})
	var mine [][]byte
	for _, f := range l.data {
		src, _ := packet.PeekIPv4Src(f)
		dst, _ := packet.PeekIPv4Dst(f)
		if l.site.Contains(src) && !l.site.Contains(dst) {
			xtr.InstallFlow(src, dst, netaddr.AddrFrom4(10, 0, 0, 1), netaddr.AddrFrom4(10, 1, 0, 1), 300)
			mine = append(mine, f)
		}
	}
	ns, allocs = replayAll(mine, func(f []byte) { xtr.InterceptFrame(f) })
	rep.set("lisp.intercept_ns", "ns", ns)
	rep.set("lisp.intercept_allocs", "count", allocs)

	cache := lisp.NewMapCache(loop, 0)
	locs := []packet.LISPLocator{{Addr: netaddr.AddrFrom4(10, 1, 0, 1), Priority: 1, Weight: 100, Reachable: true}}
	seen := map[netaddr.Prefix]bool{}
	for _, d := range l.dsts {
		p := netaddr.PrefixFrom(d, 16)
		if !seen[p] {
			seen[p] = true
			cache.Insert(p, locs, 300)
		}
	}
	ns = 0
	if len(l.dsts) > 0 {
		ns, _ = measure(replayCalls, func(i int) { cache.Lookup(l.dsts[i%len(l.dsts)]) })
	}
	rep.set("lisp.cache_lookup_ns", "ns", ns)

	pce := core.NewWithRuntime(loop, host, core.Config{
		Addr:      l.pceAddr,
		EIDPrefix: l.site,
		DNSAddr:   l.dnsAddr,
		Engine: irc.NewEngine(loop, []*irc.Provider{
			{Name: "P0", RLOC: netaddr.AddrFrom4(10, 0, 0, 1), BaseLatency: 12 * time.Millisecond},
			{Name: "P1", RLOC: netaddr.AddrFrom4(10, 0, 1, 1), BaseLatency: 25 * time.Millisecond},
		}, irc.MinLatency{}),
		AuthKey: l.authKey,
	})
	ns, allocs = replayAll(append(append([][]byte(nil), l.data...), l.lisp...), func(f []byte) { pce.SniffFrame(f) })
	rep.set("core.sniff_data_ns", "ns", ns)
	rep.set("core.sniff_data_allocs", "count", allocs)
	ns, _ = replayAll(l.ctl, func(f []byte) { pce.SniffFrame(f) })
	rep.set("core.sniff_ctl_ns", "ns", ns)

	if l.sim {
		rep.set("runtime.post_ns", "ns", 0)
		rep.set("runtime.post_allocs", "count", 0)
		rep.set("overlay.output_ns", "ns", 0)
		rep.set("simnet.event_ns", "ns", replayEvents(l.eventDepth))
		rep.set("simnet.barrier_ns", "ns", replayBarrier(l.barrierDepth))
		return
	}
	ns, allocs = replayPost()
	rep.set("runtime.post_ns", "ns", ns)
	rep.set("runtime.post_allocs", "count", allocs)
	rep.set("overlay.output_ns", "ns", replayOutput(all))
	rep.set("simnet.event_ns", "ns", 0)
	rep.set("simnet.barrier_ns", "ns", 0)
}

// serializable decodes f and returns its layers ready to serialize, or nil
// when one of them cannot be.
func serializable(f []byte) []packet.SerializableLayer {
	pk := packet.NewPacket(f, packet.LayerTypeIPv4, packet.Default)
	var out []packet.SerializableLayer
	var ip *packet.IPv4
	for _, ly := range pk.Layers() {
		switch v := ly.(type) {
		case *packet.IPv4:
			if ip == nil {
				ip = v
			}
		case *packet.UDP:
			if ip != nil {
				v.SetNetworkLayerForChecksum(ip)
			}
		case *packet.TCP:
			if ip != nil {
				v.SetNetworkLayerForChecksum(ip)
			}
		}
		s, ok := ly.(packet.SerializableLayer)
		if !ok {
			return nil
		}
		out = append(out, s)
	}
	return out
}

// replayPost times runtime.Loop.Post of a thunk until the thunk has run.
func replayPost() (ns, allocs float64) {
	loop := runtime.NewLoop(1)
	loop.Start()
	defer loop.Stop()
	ran := make(chan struct{}, 1)
	thunk := func() { ran <- struct{}{} }
	return measure(replayCalls, func(int) {
		loop.Post(thunk)
		<-ran
	})
}

// replayOutput times overlay Host.Output of the captured frames toward a
// socket the benchmark drains.
func replayOutput(frames [][]byte) float64 {
	if len(frames) == 0 {
		return 0
	}
	drain, err := newEndpoint()
	if err != nil {
		return 0
	}
	defer drain.Close()
	loop := runtime.NewLoop(1)
	h, err := overlay.New("replay", loop, "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer h.Close()
	h.SetPeer(netaddr.MustParsePrefix("0.0.0.0/0"), drain.addr())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := drain.read(); err != nil {
				return
			}
		}
	}()
	ns, _ := measure(replayCalls, func(i int) { h.Output(frames[i%len(frames)]) })
	drain.unblock()
	<-done
	return ns
}

// nopTimer is the replayed typed-timer handler.
type nopTimer struct{ fired int }

func (t *nopTimer) OnTimer(simnet.TimerArg) { t.fired++ }

// replayEvents times one typed timer armed and run to its deadline with
// depth other events pending.
func replayEvents(depth int) float64 {
	s := simnet.New(1)
	h := &nopTimer{}
	for k := 0; k < depth; k++ {
		s.ScheduleTimer(time.Hour+time.Duration(k)*time.Microsecond, h, simnet.TimerArg{})
	}
	ns, _ := measure(replayCalls, func(int) {
		s.ScheduleTimer(time.Microsecond, h, simnet.TimerArg{})
		s.RunUntil(s.Now() + time.Microsecond)
	})
	return ns
}

// replayBarrier times one barrier callback registered and fired with
// depth others outstanding — World.At is this call on the world's
// coordinator.
func replayBarrier(depth int) float64 {
	ss := simnet.NewSharded(1, 1)
	for k := 0; k < depth; k++ {
		ss.At(time.Hour+time.Duration(k)*time.Microsecond, func() {})
	}
	fired := 0
	fn := func() { fired++ }
	n := replayCalls / 20 // each call scans every outstanding callback
	ns, _ := measure(n, func(int) {
		ss.At(ss.Now()+time.Microsecond, fn)
		ss.RunUntil(ss.Now() + time.Microsecond)
	})
	return ns
}
