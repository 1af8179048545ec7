package main

import (
	"testing"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
	"github.com/pcelisp/pcelisp/internal/runtime"
)

// Each check must accept the right output and reject a deliberately
// wrong one.

func TestChecksumsMatchCodec(t *testing.T) {
	for _, size := range []int{0, 1, 12, 35, 548, 1472} {
		f := runtime.EncodeUDP(eidAddr(1, 7), eidAddr(2, 9), 7000, 9000, packet.Payload(make([]byte, size)))
		if err := checkChecksums(f); err != nil {
			t.Fatalf("%d-byte payload: codec frame rejected: %v", size, err)
		}
	}
}

func TestDeliveredRejectsFlippedByte(t *testing.T) {
	in := genForward(1)
	for _, sent := range in.ring[:64] {
		if err := checkDelivered(append([]byte(nil), sent...), sent); err != nil {
			t.Fatalf("identical frame rejected: %v", err)
		}
		for _, at := range []int{0, 9, 15, 27, len(sent) - 1} {
			got := append([]byte(nil), sent...)
			got[at] ^= 0x40
			if checkDelivered(got, sent) == nil {
				t.Fatalf("frame with byte %d flipped accepted", at)
			}
		}
	}
}

func TestChecksumsRejectCorruption(t *testing.T) {
	f := runtime.EncodeUDP(eidAddr(1, 7), eidAddr(2, 9), 7000, 9000, packet.Payload([]byte("payload bytes")))
	for _, at := range []int{10, 14, 22, len(f) - 1} {
		bad := append([]byte(nil), f...)
		bad[at] ^= 0x01
		if checkChecksums(bad) == nil {
			t.Fatalf("frame with byte %d flipped passes the checksum check", at)
		}
	}
}

func TestSeqTrackerRejectsLossAndDuplicates(t *testing.T) {
	tr := newSeqTracker()
	for s := uint64(0); s < 200; s++ {
		if err := tr.deliver(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.finish(200); err != nil {
		t.Fatalf("complete delivery rejected: %v", err)
	}

	lost := newSeqTracker()
	for s := uint64(0); s < 200; s++ {
		if s != 130 {
			lost.deliver(s)
		}
	}
	if lost.finish(200) == nil {
		t.Fatal("lost frame accepted")
	}

	dup := newSeqTracker()
	dup.deliver(5)
	if dup.deliver(5) == nil {
		t.Fatal("duplicated frame accepted")
	}
}

func dnsAnswerFrame(to netaddr.Addr, id uint16, name string, addr netaddr.Addr) []byte {
	msg := &packet.DNS{
		ID: id, QR: true, AA: true, RD: true,
		Questions: []packet.DNSQuestion{{Name: name, Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
		Answers: []packet.DNSResourceRecord{{
			Name: name, Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 300, IP: addr,
		}},
	}
	return runtime.EncodeUDP(dnsA, to, packet.PortDNS, 5353, msg)
}

func TestDNSAnswerChecks(t *testing.T) {
	client, other := eidAddr(1, 10), eidAddr(1, 11)
	want := eidAddr(2, 77)
	const name = "n1.d1.example"
	if err := checkDNSAnswer(dnsAnswerFrame(client, 4, name, want), client, 4, name, want); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	cases := map[string][]byte{
		"wrong A record":             dnsAnswerFrame(client, 4, name, eidAddr(2, 78)),
		"answer to the wrong client": dnsAnswerFrame(other, 4, name, want),
		"answer to another query ID": dnsAnswerFrame(client, 5, name, want),
		"answer for another name":    dnsAnswerFrame(client, 4, "n2.d1.example", want),
		"not DNS":                    runtime.EncodeUDP(dnsA, client, 9, 9, packet.Payload([]byte("x"))),
	}
	for what, frame := range cases {
		if checkDNSAnswer(frame, client, 4, name, want) == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestFlowResultChecks(t *testing.T) {
	good := experiments.FlowResult{OK: true, TDNS: 80e6, MappingReady: 60e6}
	if err := checkFlowResult(good, answerReady); err != nil {
		t.Fatalf("good flow rejected: %v", err)
	}
	cases := map[string]func(*experiments.FlowResult){
		"retransmitted SYN": func(r *experiments.FlowResult) { r.Retransmits = 1 },
		"handshake failed":  func(r *experiments.FlowResult) { r.OK = false },
	}
	for what, mutate := range cases {
		r := good
		mutate(&r)
		if checkFlowResult(r, answerReady) == nil {
			t.Errorf("%s accepted", what)
		}
	}
	if checkFlowResult(good, answerNotReady) == nil {
		t.Error("mapping ready after the DNS answer accepted")
	}
	if checkFlowResult(good, answerUnseen) == nil {
		t.Error("flow without a DNS answer at its host accepted")
	}
	if checkSegments(16*10, 16*10) != nil || checkSegments(16*10-1, 16*10) == nil {
		t.Error("segment count check is wrong")
	}
	if checkNoMissDrops(0) != nil || checkNoMissDrops(1) == nil {
		t.Error("miss-drop check is wrong")
	}
}

func TestFlowTableCheck(t *testing.T) {
	a, b, c := [2]netaddr.Addr{eidAddr(1, 1), eidAddr(2, 1)}, [2]netaddr.Addr{eidAddr(1, 2), eidAddr(2, 2)}, [2]netaddr.Addr{eidAddr(1, 3), eidAddr(2, 3)}
	want := [][2]netaddr.Addr{a, b}
	if err := checkFlowTable(map[[2]netaddr.Addr]bool{a: true, b: true}, want); err != nil {
		t.Fatalf("right table rejected: %v", err)
	}
	if checkFlowTable(map[[2]netaddr.Addr]bool{a: true}, want) == nil {
		t.Error("table missing a tuple accepted")
	}
	if checkFlowTable(map[[2]netaddr.Addr]bool{a: true, c: true}, want) == nil {
		t.Error("table with a foreign tuple accepted")
	}
	if checkFlowTable(map[[2]netaddr.Addr]bool{a: true, b: true, c: true}, want) == nil {
		t.Error("table with an extra tuple accepted")
	}
}

func TestInputsDependOnSeedOnly(t *testing.T) {
	a, b := newSimStream(7).next(500), newSimStream(7).next(500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sim-flows arrival %d differs for the same seed", i)
		}
		if a[i].srcD == a[i].dstD {
			t.Fatalf("arrival %d is intra-domain", i)
		}
	}
	if c := newSimStream(8).next(500); c[3] == a[3] && c[4] == a[4] {
		t.Error("sim-flows arrivals do not depend on the seed")
	}
	c1, _ := genSetup(3)
	c2, _ := genSetup(3)
	for i := 0; i < 100; i++ {
		n1, a1 := c1[1].name(i)
		n2, a2 := c2[1].name(i)
		if n1 != n2 || a1 != a2 || c1[1].eid(i) != c2[1].eid(i) {
			t.Fatalf("daemon-setup op %d differs for the same seed", i)
		}
	}
}

func TestSetupPairsNeverRepeat(t *testing.T) {
	c := &setupClient{idx: 0, names: make([]string, setupNames), addrs: make([]netaddr.Addr, setupNames)}
	for j := range c.names {
		c.addrs[j] = eidAddr(2, j+1)
	}
	seen := make(map[[2]netaddr.Addr]bool)
	for i := 0; i < 3*setupEIDs; i++ {
		_, addr := c.name(i)
		k := [2]netaddr.Addr{c.eid(i), addr}
		if seen[k] {
			t.Fatalf("op %d repeats the pair %v", i, k)
		}
		seen[k] = true
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}
