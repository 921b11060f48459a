package stack

import "mob4x4/internal/ipv4"

// Multicast support (RFC 1112 host requirements, link scope). The
// simulation models what Section 6.4 of the paper needs: a host can join
// a group through a specific interface, and group traffic is delivered on
// the segment without any router involvement. The paper's argument —
// "It would be better if the multicast application were able to join the
// multicast group through its real physical interface on the current
// local network, rather than through its virtual interface on its distant
// home network" — is about WHERE the join happens; inter-network
// multicast routing (DVMRP et al.) is out of scope.

// JoinGroup subscribes the host to a multicast group on the given
// interface. Packets addressed to the group arriving on that interface
// are delivered to the protocol handlers.
func (h *Host) JoinGroup(ifc *Iface, group ipv4.Addr) {
	if !group.IsMulticast() {
		return
	}
	if ifc.groups == nil {
		ifc.groups = make(map[ipv4.Addr]bool)
	}
	ifc.groups[group] = true
}

// LeaveGroup unsubscribes the interface from a group.
func (h *Host) LeaveGroup(ifc *Iface, group ipv4.Addr) {
	delete(ifc.groups, group)
}

// InGroup reports whether the interface has joined the group.
func (i *Iface) InGroup(group ipv4.Addr) bool { return i.groups[group] }

// SendMulticast transmits a packet to a multicast group out of a specific
// interface (multicast sends are interface-scoped, never routed here).
func (h *Host) SendMulticast(ifc *Iface, pkt ipv4.Packet) error {
	if !pkt.Dst.IsMulticast() {
		return h.SendIP(pkt)
	}
	if pkt.TTL == 0 {
		pkt.TTL = 1 // link scope by default
	}
	if pkt.ID == 0 {
		pkt.ID = h.NextIPID()
	}
	if pkt.TraceID == 0 {
		pkt.TraceID = h.sim.Trace.NextPacketID()
	}
	if pkt.Src.IsZero() {
		pkt.Src = ifc.addr
	}
	return h.transmit(ifc, pkt.Dst, pkt)
}
