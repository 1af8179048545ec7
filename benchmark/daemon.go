package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/lispd"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// The daemon workloads run two lispd daemons in this process over real
// loopback UDP: site A (EIDs 100.1.0.0/16, zone d0.example) holds the
// clients, site B (EIDs 100.2.0.0/16, zone d1.example) the far hosts and
// the authoritative records. Each daemon peers the other's EIDs, RLOCs
// and infrastructure addresses, as cmd/lispd configurations do.

const planeKey = "pce-plane-key"

var (
	dnsA    = netaddr.MustParseAddr("172.16.0.2") // A's DNS front end
	pceAddr = netaddr.MustParseAddr("172.16.0.1") // A's PCE
)

// pairConfig is site idx's daemon configuration; records go into its
// zone. Both ITRs use the drop miss policy.
func pairConfig(idx int, records []lispd.RecordConfig) *lispd.Config {
	other := 1 - idx
	return &lispd.Config{
		Name:     fmt.Sprintf("site-%c", 'a'+idx),
		Listen:   "127.0.0.1:0",
		Seed:     int64(idx) + 1,
		EIDSpace: "100.0.0.0/8",
		Site: &lispd.SiteConfig{
			EIDPrefix: fmt.Sprintf("100.%d.0.0/16", idx+1),
			Locators: []lispd.LocatorConfig{
				{Name: fmt.Sprintf("P%d.0", idx), RLOC: fmt.Sprintf("10.%d.0.1", idx), BaseLatencyMillis: 12},
				{Name: fmt.Sprintf("P%d.1", idx), RLOC: fmt.Sprintf("10.%d.1.1", idx), BaseLatencyMillis: 25},
			},
		},
		PCE: &lispd.PCEConfig{
			Addr:    fmt.Sprintf("172.16.%d.1", idx),
			DNSAddr: fmt.Sprintf("172.16.%d.2", idx),
		},
		Keys:      []lispd.KeyConfig{{ID: "plane", Secret: planeKey}},
		AuthKeyID: "plane",
		DNS: &lispd.DNSConfig{
			Zone:    fmt.Sprintf("d%d.example", idx),
			Records: records,
			Views: []lispd.ViewConfig{
				{Name: "internal", CIDRs: []string{fmt.Sprintf("100.%d.0.0/16", idx+1)}, Recursion: true},
				{Name: "infra", CIDRs: []string{"172.16.0.0/12"}},
			},
			Forward: []lispd.ForwardConfig{
				{Zone: fmt.Sprintf("d%d.example", other), Server: fmt.Sprintf("172.16.%d.2", other)},
			},
		},
	}
}

// daemonPair is the two running daemons.
type daemonPair struct {
	a, b *lispd.Daemon
}

// startPair assembles, cross-wires and starts the two daemons; site B's
// zone holds records. beforeStart, when set, runs between assembly and
// start — where traced runs add their capture sniffers.
func startPair(records []lispd.RecordConfig, beforeStart func(*daemonPair)) (*daemonPair, error) {
	a, err := lispd.New(pairConfig(0, nil))
	if err != nil {
		return nil, fmt.Errorf("site a: %w", err)
	}
	b, err := lispd.New(pairConfig(1, records))
	if err != nil {
		a.Close()
		return nil, fmt.Errorf("site b: %w", err)
	}
	for _, p := range []string{"100.2.0.0/16", "10.1.0.0/16", "172.16.1.0/24"} {
		a.SetPeer(netaddr.MustParsePrefix(p), b.RealAddr())
	}
	for _, p := range []string{"100.1.0.0/16", "10.0.0.0/16", "172.16.0.0/24"} {
		b.SetPeer(netaddr.MustParsePrefix(p), a.RealAddr())
	}
	p := &daemonPair{a: a, b: b}
	if beforeStart != nil {
		beforeStart(p)
	}
	a.Start()
	b.Start()
	return p, nil
}

func (p *daemonPair) Close() {
	p.a.Close()
	p.b.Close()
}

// onLoop runs fn on d's event loop and waits for it.
func onLoop(d *lispd.Daemon, fn func()) {
	done := make(chan struct{})
	d.Loop().Post(func() {
		fn()
		close(done)
	})
	<-done
}

// flowTable snapshots site A's ITR flow table as (source, destination)
// EID pairs.
func (p *daemonPair) flowTable() map[[2]netaddr.Addr]bool {
	table := make(map[[2]netaddr.Addr]bool)
	onLoop(p.a, func() {
		p.a.XTR().Flows.Walk(func(k lisp.FlowKey, _ lisp.FlowEntry) {
			table[[2]netaddr.Addr{k.Src, k.Dst}] = true
		})
	})
	return table
}

// checkOverlay requires both daemons' hosts to have routed and decoded
// every frame.
func (p *daemonPair) checkOverlay() error {
	for _, d := range []*lispd.Daemon{p.a, p.b} {
		st := d.Host().Stats()
		if st.NoRoute != 0 || st.Malformed != 0 {
			return fmt.Errorf("%s: %d no-route and %d malformed frames", d.Host().HostName(), st.NoRoute, st.Malformed)
		}
	}
	return nil
}

// endpoint is one benchmark-owned socket playing end hosts.
type endpoint struct {
	conn *net.UDPConn
	buf  []byte
}

func newEndpoint() (*endpoint, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("end host socket: %w", err)
	}
	// Closed loops keep at most a few dozen frames in flight; the default
	// buffer sizes hold them.
	return &endpoint{conn: conn, buf: make([]byte, 64*1024)}, nil
}

func (e *endpoint) addr() *net.UDPAddr { return e.conn.LocalAddr().(*net.UDPAddr) }

func (e *endpoint) send(to netip.AddrPort, frame []byte) error {
	_, err := e.conn.WriteToUDPAddrPort(frame, to)
	return err
}

var errTimeout = errors.New("timed out")

// recv reads one frame, waiting at most d. The returned slice aliases the
// endpoint's buffer until the next recv.
func (e *endpoint) recv(d time.Duration) ([]byte, error) {
	if err := e.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		return nil, err
	}
	n, err := e.conn.Read(e.buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, errTimeout
		}
		return nil, err
	}
	return e.buf[:n], nil
}

// read waits for one frame with no deadline (sockets that never use recv);
// unblock ends the wait.
func (e *endpoint) read() ([]byte, error) {
	n, err := e.conn.Read(e.buf)
	if err != nil {
		return nil, err
	}
	return e.buf[:n], nil
}

func (e *endpoint) unblock() { e.conn.SetReadDeadline(time.Unix(1, 0)) }

func (e *endpoint) Close() { e.conn.Close() }

// dnsQuery encodes a client's A query for name as the frame it sends to
// site A's DNS front end.
func dnsQuery(client netaddr.Addr, sport, id uint16, name string) []byte {
	q := packet.QuestionFor(id, name, packet.DNSTypeA)
	q.RD = true
	return runtime.EncodeUDP(client, dnsA, sport, packet.PortDNS, q)
}

// eidAddr builds an EID 100.<site>.x.y from a 16-bit host index.
func eidAddr(site int, host int) netaddr.Addr {
	return netaddr.AddrFrom4(100, byte(site), byte(host>>8), byte(host))
}

// capture copies frames passing a daemon's sniffer chain (traced runs
// only), up to limit per class.
type capture struct {
	limit  int
	frames map[string][][]byte
}

func newCapture(limit int) *capture {
	return &capture{limit: limit, frames: make(map[string][][]byte)}
}

// sniffer is a pass-through frame sniffer that files a copy of each frame
// under its class. It runs on the daemon's loop goroutine; read frames
// only after the daemon has stopped or through onLoop.
func (c *capture) sniffer() runtime.FrameSniffer {
	return func(data []byte) runtime.Verdict {
		cls := frameClass(data)
		if len(c.frames[cls]) < c.limit {
			c.frames[cls] = append(c.frames[cls], append([]byte(nil), data...))
		}
		return runtime.VerdictPass
	}
}

// frameClass sorts a frame into the replay ledger's classes.
func frameClass(data []byte) string {
	sport, dport, _, ok := packet.PeekUDPPayload(data)
	if !ok {
		if len(data) > 9 && data[9] == 6 {
			return "data" // TCP
		}
		return "other"
	}
	switch {
	case sport == packet.PortDNS || dport == packet.PortDNS:
		return "dns"
	case sport == packet.PortPCECP || dport == packet.PortPCECP:
		return "pcecp"
	case dport == packet.PortLISPData:
		return "lisp"
	}
	return "data"
}
