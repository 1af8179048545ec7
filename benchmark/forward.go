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

// daemon-forward inputs: fwdFlows flows resolved through the real DNS
// path, then a closed loop keeping fwdWindow inner frames in flight from
// a ring of fwdRing pre-built frames whose sizes follow fwdSizeMix.
const (
	fwdFlows  = 16
	fwdWindow = 32
	fwdRing   = 4096
	fwdSetups = 11
	fwdWait   = 2 * time.Second // longest wait for any one frame
	fwdSlotAt = 28              // payload offset of the ring slot number
	// fwdRSSFrames is the frame count at which peak_rss_mb is read; every
	// run sends at least this many.
	fwdRSSFrames = 1 << 17
)

// fwdSizeMix is the inner frame size mix (IPv4 packet bytes, weight): the
// "Simple IMIX" of 40, 576 and 1500 bytes in the ratio 7:4:1, a standard
// Internet traffic mix for router and tunnel throughput tests.
var fwdSizeMix = []struct{ size, weight int }{{40, 7}, {576, 4}, {1500, 1}}

type fwdFlow struct {
	src, dst netaddr.Addr
	name     string
}

// fwdInputs is everything daemon-forward sends, drawn from the seed.
type fwdInputs struct {
	flows   []fwdFlow
	records []lispd.RecordConfig
	ring    [][]byte
}

func genForward(seed int64) fwdInputs {
	rng := rand.New(rand.NewSource(seed))
	var in fwdInputs
	srcs, dsts := rng.Perm(1<<16-2), rng.Perm(1<<16-2)
	for k := 0; k < fwdFlows; k++ {
		f := fwdFlow{
			src:  eidAddr(1, srcs[k]+1),
			dst:  eidAddr(2, dsts[k]+1),
			name: fmt.Sprintf("f%d.d1.example", k),
		}
		in.flows = append(in.flows, f)
		in.records = append(in.records, lispd.RecordConfig{Name: f.name, Addr: f.dst.String()})
	}
	total := 0
	for _, m := range fwdSizeMix {
		total += m.weight
	}
	for slot := 0; slot < fwdRing; slot++ {
		k := rng.Intn(fwdFlows)
		size, w := fwdSizeMix[0].size, rng.Intn(total)
		for _, m := range fwdSizeMix {
			if w < m.weight {
				size = m.size
				break
			}
			w -= m.weight
		}
		payload := make([]byte, size-fwdSlotAt)
		rng.Read(payload)
		binary.BigEndian.PutUint32(payload, uint32(slot))
		f := in.flows[k]
		in.ring = append(in.ring, runtime.EncodeUDP(f.src, f.dst, uint16(7000+k), 9000, packet.Payload(payload)))
	}
	return in
}

// primeForward resolves every flow's name from the client socket, which
// installs the flows at site A's ITR.
func primeForward(p *daemonPair, client *endpoint, in fwdInputs) error {
	to := p.a.RealAddr().AddrPort()
	for k, f := range in.flows {
		id := uint16(k + 1)
		if err := client.send(to, dnsQuery(f.src, 5353, id, f.name)); err != nil {
			return err
		}
		frame, err := client.recv(fwdWait)
		if err != nil {
			return fmt.Errorf("priming %s: %w", f.name, err)
		}
		if err := checkDNSAnswer(frame, f.src, id, f.name, f.dst); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

// fwdLoop is the closed loop's shared state: the sender stamps a slot
// before sending it, the receiver reads the stamp when the frame lands.
type fwdLoop struct {
	ring   [][]byte
	seqOf  [fwdRing]atomic.Uint64
	sentAt [fwdRing]atomic.Int64 // ns since the slice clock's base
	tokens chan struct{}         // semaphore: one token per frame in flight

	// Receiver-owned until wait returns.
	tracker  *seqTracker
	clock    *sliceClock
	lat      [slices + 1][]time.Duration // by completion slice
	problems []string
	traced   bool
	spans    []span
}

func (l *fwdLoop) receive(sink *endpoint, stopping *atomic.Bool) {
	for {
		frame, err := sink.read()
		if err != nil {
			if !stopping.Load() {
				l.problems = append(l.problems, fmt.Sprintf("sink read: %v", err))
			}
			return
		}
		now := time.Since(l.clock.base)
		if len(frame) < fwdSlotAt+4 {
			l.note("short frame of %d bytes delivered", len(frame))
			continue
		}
		slot := binary.BigEndian.Uint32(frame[fwdSlotAt:])
		if slot >= fwdRing {
			l.note("frame with slot %d delivered", slot)
			continue
		}
		if err := checkDelivered(frame, l.ring[slot]); err != nil {
			l.note("slot %d: %v", slot, err)
			continue
		}
		if err := l.tracker.deliver(l.seqOf[slot].Load()); err != nil {
			l.note("%v", err)
			continue
		}
		sentAt := l.sentAt[slot].Load()
		k := l.clock.index(now)
		l.lat[k] = append(l.lat[k], now-time.Duration(sentAt))
		if l.traced && len(l.spans) < spanLimit {
			l.spans = append(l.spans, span{Op: int(l.seqOf[slot].Load()), Name: "frame", Start: sentAt, End: int64(now)})
		}
		<-l.tokens
	}
}

func (l *fwdLoop) note(format string, args ...any) {
	if len(l.problems) < 10 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

func runDaemonForward(cfg runConfig) (*report, error) {
	rep := &report{}
	in := genForward(cfg.seed)
	client, err := newEndpoint()
	if err != nil {
		return nil, err
	}
	defer client.Close()
	sink, err := newEndpoint()
	if err != nil {
		return nil, err
	}
	defer sink.Close()

	var tr *daemonTrace
	if cfg.trace {
		tr = newDaemonTrace(cfg, "daemon-forward")
	}
	// Set-up: assemble, start and prime the pair several times; the last
	// one is timed.
	var setups []time.Duration
	var pair *daemonPair
	for k := 0; k < fwdSetups; k++ {
		if pair != nil {
			pair.Close()
			goruntime.GC() // one pair's garbage at a time, so peak RSS is the timed pair's
		}
		t0 := time.Now()
		var hook func(*daemonPair)
		if tr != nil && k == fwdSetups-1 {
			hook = tr.attach
		}
		pair, err = startPair(in.records, hook)
		if err != nil {
			return nil, err
		}
		pair.a.SetPeer(netaddr.MustParsePrefix("100.1.0.0/16"), client.addr())
		pair.b.SetPeer(netaddr.MustParsePrefix("100.2.0.0/16"), sink.addr())
		if err := primeForward(pair, client, in); err != nil {
			pair.Close()
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer pair.Close()

	loop := &fwdLoop{
		ring:    in.ring,
		tokens:  make(chan struct{}, fwdWindow),
		tracker: newSeqTracker(),
		traced:  tr != nil,
	}
	to := pair.a.RealAddr().AddrPort()
	var stopping atomic.Bool
	var wg sync.WaitGroup

	var before layerCounts
	if tr != nil {
		before = tr.counts(pair)
	}
	var rssMB float64
	ph := startPhase()
	loop.clock = startSliceClock(cfg.seconds)
	deadline := loop.clock.base.Add(time.Duration(cfg.seconds * float64(time.Second)))
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop.receive(sink, &stopping)
	}()
	var sent uint64
	stall := time.NewTimer(fwdWait)
	stall.Stop()
	stalled := false
	for ; sent%64 != 0 || sent <= fwdRSSFrames || time.Now().Before(deadline); sent++ {
		if sent == fwdRSSFrames {
			rssMB = peakRSSMB()
		}
		select {
		case loop.tokens <- struct{}{}:
		default:
			stall.Reset(fwdWait)
			select {
			case loop.tokens <- struct{}{}:
				stall.Stop()
			case <-stall.C:
				stalled = true
			}
		}
		if stalled {
			rep.fail("window stalled: no frame delivered for %v", fwdWait)
			break
		}
		slot := sent % fwdRing
		loop.seqOf[slot].Store(sent)
		loop.sentAt[slot].Store(int64(time.Since(loop.clock.base)))
		if err := client.send(to, in.ring[slot]); err != nil {
			rep.fail("send frame %d: %v", sent, err)
			stalled = true
			break
		}
	}
	// Drain: holding every token means every frame has landed.
	drained := !stalled
	for i := 0; i < fwdWindow && drained; i++ {
		select {
		case loop.tokens <- struct{}{}:
		case <-time.After(fwdWait):
			drained = false
		}
	}
	totals := ph.end()
	var timed layerCounts
	if tr != nil {
		timed = tr.counts(pair).minus(before)
	}
	stopping.Store(true)
	sink.unblock()
	wg.Wait()

	rep.attempted = int64(sent)
	parts := loop.clock.parts(loop.lat[:])
	var delivered int64
	for _, l := range loop.lat {
		delivered += int64(len(l))
	}
	rep.failed = int64(sent) - delivered
	for _, p := range loop.problems {
		rep.fail("%s", p)
	}
	rep.check(loop.tracker.finish(sent))
	rep.check(pair.checkOverlay())
	if tr != nil {
		var lat []time.Duration
		for _, l := range loop.lat {
			lat = append(lat, l...)
		}
		tr.finishForward(rep, pair, in, timed, totals, delivered, lat, loop.spans)
		return rep, nil
	}
	rep.setEndToEnd(medianDuration(setups), totals, delivered, parts, rssMB)
	return rep, nil
}
