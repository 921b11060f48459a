package mobileip

import (
	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
)

// Same-segment presence (Row C discovery). Section 5 motivates In-DH
// with the visiting-another-institution case, and Section 7.2 says the
// correspondent should use In-DH "if the correspondent host knows that
// the mobile host is on the same Ethernet segment". This file provides
// the knowing: a visiting mobile host broadcasts a small presence
// announcement (home address + current care-of address) on its local
// segment, and mobile-aware correspondents that hear it record an
// on-link binding — switching their replies to In-DH with no routers,
// no home agent, and no wide-area discovery involved.

// PortPresence is the UDP port presence announcements use.
const PortPresence = 436

// AnnouncePresence broadcasts one presence announcement on the mobile
// node's current segment. Call after each move (and optionally
// periodically); it is a no-op at home or when detached.
func (mn *MobileNode) AnnouncePresence() {
	if mn.AtHome() || !mn.ifc.NIC().Attached() {
		return
	}
	// Reuse the binding-notice wire format via a tiny header: the
	// advertisement codec already carries (addr, flags, lifetime, seq);
	// we need (home, careOf). Encode both addresses explicitly.
	b := make([]byte, 9)
	b[0] = 17 // presence type byte (16 = agent advertisement)
	copy(b[1:5], mn.cfg.Home[:])
	copy(b[5:9], mn.careOf[:])
	sock, err := mn.host.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		return
	}
	defer sock.Close()
	_ = sock.SendToFrom(mn.careOf, ipv4.Broadcast, PortPresence, b)
}

// ListenForVisitors makes a correspondent record on-link bindings from
// presence announcements heard on its segments. Returns a cancel
// function. Non-aware correspondents ignore everything (the policy drops
// the learn).
func (c *Correspondent) ListenForVisitors(lifetimeSec uint16) (cancel func(), err error) {
	sock, err := c.host.OpenUDP(ipv4.Zero, PortPresence, func(src ipv4.Addr, sp uint16, dst ipv4.Addr, payload []byte) {
		if len(payload) < 9 || payload[0] != 17 {
			return
		}
		var home, careOf ipv4.Addr
		copy(home[:], payload[1:5])
		copy(careOf[:], payload[5:9])
		if src != careOf {
			return // announcement must come from the claimed care-of address
		}
		c.LearnBinding(core.Binding{Home: home, CareOf: careOf}, lifetimeSec)
	})
	if err != nil {
		return nil, err
	}
	return sock.Close, nil
}
