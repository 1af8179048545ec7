package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/pcelisp/pcelisp/internal/experiments"
	"github.com/pcelisp/pcelisp/internal/netaddr"
	"github.com/pcelisp/pcelisp/internal/packet"
)

// The output checks. Each is a pure function of the program's output and
// a value the benchmark computed apart from the program, so the self-tests
// in checks_test.go can feed each one a deliberately wrong output.

// checkFlowResult checks one simulated flow: the handshake completed with
// no SYN retransmission, and the source ITR held the flow's mapping when
// the DNS answer reached the source host (the paper's claim ii).
func checkFlowResult(res experiments.FlowResult, atAnswer answerState) error {
	switch {
	case !res.OK:
		return errors.New("handshake did not complete")
	case res.Retransmits != 0:
		return fmt.Errorf("%d SYN retransmissions", res.Retransmits)
	case atAnswer == answerUnseen:
		return fmt.Errorf("no DNS answer for %v seen at %v", res.Dst, res.Src)
	case atAnswer != answerReady:
		return fmt.Errorf("DNS answer for %v reached %v before the source ITR held a mapping for it", res.Dst, res.Src)
	}
	return nil
}

// checkSegments compares data segments received against the count the
// generator sent.
func checkSegments(received, sent uint64) error {
	if received != sent {
		return fmt.Errorf("%d data segments received, generator sent %d", received, sent)
	}
	return nil
}

// checkNoMissDrops requires drop-policy ITRs to have dropped nothing.
func checkNoMissDrops(drops uint64) error {
	if drops != 0 {
		return fmt.Errorf("ITRs dropped %d packets on mapping misses", drops)
	}
	return nil
}

// onesSum is the RFC 1071 one's-complement sum of b folded to 16 bits,
// computed here independently of the packet package.
func onesSum(sum uint32, b []byte) uint32 {
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return sum
}

// checkChecksums verifies an IPv4/UDP frame's header and UDP checksums.
func checkChecksums(frame []byte) error {
	if len(frame) < 28 || frame[0]>>4 != 4 {
		return errors.New("not an IPv4 frame")
	}
	ihl := int(frame[0]&0x0f) * 4
	total := int(binary.BigEndian.Uint16(frame[2:4]))
	if ihl < 20 || total != len(frame) || len(frame) < ihl+8 {
		return fmt.Errorf("bad IPv4 lengths: ihl %d total %d frame %d", ihl, total, len(frame))
	}
	if onesSum(0, frame[:ihl]) != 0xffff {
		return errors.New("IPv4 header checksum does not verify")
	}
	if frame[9] != 17 {
		return errors.New("not UDP")
	}
	udp := frame[ihl:]
	if int(binary.BigEndian.Uint16(udp[4:6])) != len(udp) {
		return errors.New("bad UDP length")
	}
	if binary.BigEndian.Uint16(udp[6:8]) == 0 {
		return nil // checksum not used
	}
	var pseudo [12]byte
	copy(pseudo[0:8], frame[12:20])
	pseudo[9] = 17
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(udp)))
	if onesSum(onesSum(0, pseudo[:]), udp) != 0xffff {
		return errors.New("UDP checksum does not verify")
	}
	return nil
}

// checkDelivered checks one frame delivered at the far host against the
// frame the generator sent with that sequence number.
func checkDelivered(got, sent []byte) error {
	if !bytes.Equal(got, sent) {
		return fmt.Errorf("delivered frame (%d B) differs from the frame sent (%d B)", len(got), len(sent))
	}
	return checkChecksums(got)
}

// seqTracker detects lost and duplicated frames: each sequence number
// must be delivered exactly once.
type seqTracker struct {
	bits  []uint64
	count uint64
}

func newSeqTracker() *seqTracker { return &seqTracker{} }

// deliver records seq's arrival; a second arrival is a duplicate.
func (t *seqTracker) deliver(seq uint64) error {
	w, b := seq/64, uint64(1)<<(seq%64)
	for uint64(len(t.bits)) <= w {
		t.bits = append(t.bits, 0)
	}
	if t.bits[w]&b != 0 {
		return fmt.Errorf("frame %d delivered twice", seq)
	}
	t.bits[w] |= b
	t.count++
	return nil
}

// finish requires each of the sent sequence numbers [0, sent) to have
// arrived, and nothing else.
func (t *seqTracker) finish(sent uint64) error {
	for s := uint64(0); s < sent; s++ {
		if s/64 >= uint64(len(t.bits)) || t.bits[s/64]&(1<<(s%64)) == 0 {
			return fmt.Errorf("%d frames sent, %d delivered: frame %d lost", sent, t.count, s)
		}
	}
	if t.count != sent {
		return fmt.Errorf("%d frames sent, %d delivered", sent, t.count)
	}
	return nil
}

// checkDNSAnswer checks a DNS answer frame received by a client: it must
// be addressed to the client EID that asked, answer the query's ID and
// name, and carry the address the generator wrote into the zone.
func checkDNSAnswer(frame []byte, client netaddr.Addr, id uint16, name string, want netaddr.Addr) error {
	pk := packet.NewPacket(frame, packet.LayerTypeIPv4, packet.NoCopy)
	ipl, dl := pk.Layer(packet.LayerTypeIPv4), pk.Layer(packet.LayerTypeDNS)
	if ipl == nil || dl == nil {
		return errors.New("answer is not an IPv4/UDP/DNS frame")
	}
	if dst := ipl.(*packet.IPv4).DstIP; dst != client {
		return fmt.Errorf("answer for %s reached %v, not the client %v that asked", name, dst, client)
	}
	ans := dl.(*packet.DNS)
	if !ans.QR || ans.ID != id {
		return fmt.Errorf("answer ID %d (QR=%v), query ID %d", ans.ID, ans.QR, id)
	}
	if len(ans.Questions) == 0 || ans.Questions[0].Name != name {
		return fmt.Errorf("answer is for another name than %s", name)
	}
	got, ok := ans.FirstA()
	if !ok || got != want {
		return fmt.Errorf("%s resolved to %v (ok=%v), zone holds %v", name, got, ok, want)
	}
	return nil
}

// checkFlowTable requires the ITR flow table to hold exactly one tuple
// per completed op: every expected (client, destination) pair and no
// other.
func checkFlowTable(table map[[2]netaddr.Addr]bool, want [][2]netaddr.Addr) error {
	if len(table) != len(want) {
		return fmt.Errorf("ITR flow table holds %d tuples, %d ops completed", len(table), len(want))
	}
	for _, k := range want {
		if !table[k] {
			return fmt.Errorf("ITR flow table lacks %v -> %v", k[0], k[1])
		}
	}
	return nil
}
