package mobileip

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/vtime"
)

// Agent discovery. The IETF protocol the paper builds on ([Per96a])
// has agents periodically multicast Agent Advertisements so arriving
// mobile hosts can find a foreign agent without configuration. The
// simulation carries advertisements as small UDP broadcasts on the
// agent's segment (the real protocol extends ICMP Router Discovery; the
// discovery semantics — hear a beacon, learn the agent, register — are
// identical).

// Advertisement is one agent beacon.
type Advertisement struct {
	Agent    ipv4.Addr
	Flags    uint8 // AdvFlagFA / AdvFlagHA
	Lifetime uint16
	Sequence uint16
}

// Advertisement flags.
const (
	AdvFlagFA uint8 = 1 << 0 // sender offers foreign-agent service
	AdvFlagHA uint8 = 1 << 1 // sender is a home agent
)

// PortAgentAdvert is the UDP port advertisements use.
const PortAgentAdvert = 435

const advLen = 1 + 4 + 1 + 2 + 2

// Marshal serializes the advertisement (type byte 16 distinguishes it
// from registration traffic if ports are ever shared).
func (a *Advertisement) Marshal() []byte {
	b := make([]byte, advLen)
	b[0] = 16
	copy(b[1:5], a.Agent[:])
	b[5] = a.Flags
	binary.BigEndian.PutUint16(b[6:], a.Lifetime)
	binary.BigEndian.PutUint16(b[8:], a.Sequence)
	return b
}

// ParseAdvertisement decodes a beacon.
func ParseAdvertisement(b []byte) (Advertisement, error) {
	var a Advertisement
	if len(b) < advLen || b[0] != 16 {
		return a, fmt.Errorf("mobileip: not an agent advertisement")
	}
	copy(a.Agent[:], b[1:5])
	a.Flags = b[5]
	a.Lifetime = binary.BigEndian.Uint16(b[6:])
	a.Sequence = binary.BigEndian.Uint16(b[8:])
	return a, nil
}

// Advertise starts periodic beaconing from the foreign agent. Stop the
// returned timer-chain by calling the returned cancel function.
func (fa *ForeignAgent) Advertise(interval vtime.Duration) (cancel func()) {
	seq := uint16(0)
	stopped := false
	sock, err := fa.host.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		return func() {}
	}
	var beacon func()
	beacon = func() {
		if stopped {
			return
		}
		seq++
		adv := Advertisement{
			Agent:    fa.Addr(),
			Flags:    AdvFlagFA,
			Lifetime: fa.cfg.VisitorLifetime,
			Sequence: seq,
		}
		//mob4x4vet:allow hotpathalloc agent beacons are periodic control traffic, not per-packet datapath
		_ = sock.SendToFrom(fa.Addr(), ipv4.Broadcast, PortAgentAdvert, adv.Marshal())
		fa.host.Sched().After(interval, beacon)
	}
	beacon()
	return func() { stopped = true; sock.Close() }
}

// ListenForAgents makes the mobile node register through any foreign
// agent it hears on its current segment when it is detached-from-home and
// unregistered — the zero-configuration attachment path. Returns the
// socket's close function.
func (mn *MobileNode) ListenForAgents() (cancel func(), err error) {
	sock, err := mn.host.OpenUDP(ipv4.Zero, PortAgentAdvert, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
		adv, err := ParseAdvertisement(payload)
		if err != nil || adv.Flags&AdvFlagFA == 0 {
			return
		}
		if mn.AtHome() || mn.Registered() {
			return
		}
		if mn.viaFA && mn.careOf == adv.Agent {
			return // already registering through this agent
		}
		seg := mn.ifc.NIC().Segment()
		if seg == nil {
			return
		}
		mn.MoveToForeignAgent(seg, adv.Agent)
	})
	if err != nil {
		return nil, fmt.Errorf("mobileip: agent listener: %w", err)
	}
	return sock.Close, nil
}
