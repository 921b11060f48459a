package stack

import (
	"errors"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

// Errors SendIP and Resubmit return for a packet dropped before it reaches
// a link. They are fixed values, not formatted per packet: a handoff storm
// drops thousands of packets at egress filters alone.
var (
	ErrNoBroadcastIface = errors.New("stack: no attached interface for broadcast")
	ErrNoRoute          = errors.New("stack: no route to destination")
	ErrEgressFiltered   = errors.New("stack: egress filter dropped packet")
)

// SendIP routes and transmits a locally-generated packet. Zero-valued
// fields are completed: TTL (DefaultTTL), ID (fresh), TraceID (fresh), and
// Src (address of the output interface — unless the caller pinned it,
// which is exactly how the mobility code chooses between the home address
// and the care-of address).
func (h *Host) SendIP(pkt ipv4.Packet) error {
	if pkt.TTL == 0 {
		pkt.TTL = ipv4.DefaultTTL
	}
	if pkt.ID == 0 {
		pkt.ID = h.NextIPID()
	}
	if pkt.TraceID == 0 {
		pkt.TraceID = h.sim.Trace.NextPacketID()
	}
	h.metrics.IPSent.Inc()
	if tr := h.sim.Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventSend, Time: h.sim.Now(), Where: h.name, PktID: pkt.TraceID,
			Detail: pktDetail(pkt.Src, pkt.Dst, pkt.Protocol, pkt.TotalLen()),
		})
	}
	return h.output(pkt, true)
}

// Resubmit re-enters a packet into the IP output path without consulting
// the route override again. Virtual (tunnel) interfaces call this with the
// encapsulated packet, mirroring the paper's "encapsulates the packet and
// resubmits it to IP".
func (h *Host) Resubmit(pkt ipv4.Packet) error {
	if pkt.TTL == 0 {
		pkt.TTL = ipv4.DefaultTTL
	}
	if pkt.ID == 0 {
		pkt.ID = h.NextIPID()
	}
	return h.output(pkt, false)
}

// output routes pkt and hands it to an interface. useOverride selects
// whether the mobility policy hook is consulted (true only for the first
// pass over locally-generated packets).
func (h *Host) output(pkt ipv4.Packet, useOverride bool) error {
	// Local destination: deliver without touching the network (deferred
	// through the scheduler; see postLocal).
	if h.Claimed(pkt.Dst) || pkt.Dst.IsLoopback() {
		h.postLocal(pkt)
		return nil
	}

	// Limited broadcast: transmit on the first attached interface (DHCP
	// and other link-scoped chatter).
	if pkt.Dst.IsBroadcast() {
		for _, ifc := range h.ifaces {
			if ifc.nic.Attached() {
				return h.transmit(ifc, pkt.Dst, pkt)
			}
		}
		return ErrNoBroadcastIface
	}

	var rt Route
	var ok bool
	if useOverride && h.RouteOverride != nil {
		rt, pkt.Src, ok = h.RouteOverride(pkt)
	}
	if !ok {
		rt, ok = h.routes.Lookup(pkt.Dst)
	}
	if !ok {
		h.metrics.Drop(metrics.DropNoRoute)
		if tr := h.sim.Trace; tr.On() {
			tr.Record(netsim.Event{
				Kind: netsim.EventDropNoRoute, Time: h.sim.Now(), Where: h.name, PktID: pkt.TraceID,
				Detail: dstDetail(pkt.Dst),
			})
		}
		return ErrNoRoute
	}

	if rt.IsVirtual() {
		rt.Output(pkt)
		return nil
	}

	if pkt.Src.IsZero() {
		pkt.Src = rt.Iface.addr
	}
	nexthop := rt.NextHop
	if nexthop.IsZero() {
		nexthop = pkt.Dst
	}
	return h.transmit(rt.Iface, nexthop, pkt)
}

// transmit applies the egress filter, fragments to the interface MTU, and
// resolves the link-layer destination.
func (h *Host) transmit(ifc *Iface, nexthop ipv4.Addr, pkt ipv4.Packet) error {
	if h.Filter != nil && !h.Filter.checkEgress(ifc, &pkt) {
		h.traceFilterDrop("egress", ifc, &pkt)
		return ErrEgressFiltered
	}
	mtu := ifc.nic.MTU()
	if pkt.TotalLen() <= mtu {
		ifc.resolveAndSend(nexthop, pkt)
		return nil
	}
	return h.fragmentAndSend(ifc, nexthop, pkt, mtu)
}

// fragmentAndSend is transmit's path for a packet larger than the MTU. The
// fragments alias pkt's payload and live in a stack array (a 1500-byte
// link splits a tunnel-sized packet in two), so fragmenting allocates
// nothing; resolveAndSend copies each onto the wire.
func (h *Host) fragmentAndSend(ifc *Iface, nexthop ipv4.Addr, pkt ipv4.Packet, mtu int) error {
	var store [4]ipv4.Packet
	frags, err := ipv4.AppendFragments(store[:0], pkt, mtu)
	if err != nil {
		if err == ipv4.ErrFragNeeded {
			h.metrics.Drop(metrics.DropFragNeeded)
			if h.FragNeeded != nil {
				h.FragNeeded(ifc, pkt, mtu)
			}
		} else {
			h.metrics.Drop(metrics.DropMalformed)
		}
		return err
	}
	h.Stats.FragsCreated += uint64(len(frags))
	for _, f := range frags {
		ifc.resolveAndSend(nexthop, f)
	}
	return nil
}

// SendIPLinkDirect transmits pkt out of ifc with the link-layer
// destination resolved for linkDst rather than for the packet's IP
// destination. This is the In-DH mechanism of Section 5: "the only
// difference is in the link-layer destination to which the packet is
// addressed" — a correspondent host sends an ordinary packet addressed to
// the mobile host's home address, but link-delivers it to the mobile
// host's interface on the shared segment.
func (h *Host) SendIPLinkDirect(ifc *Iface, linkDst ipv4.Addr, pkt ipv4.Packet) error {
	if pkt.TTL == 0 {
		pkt.TTL = ipv4.DefaultTTL
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
	h.metrics.IPSent.Inc()
	if tr := h.sim.Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventSend, Time: h.sim.Now(), Where: h.name, PktID: pkt.TraceID,
			Detail: linkDirectDetail(pkt.Src, pkt.Dst, pkt.Protocol, linkDst),
		})
	}
	return h.transmit(ifc, linkDst, pkt)
}

// InjectLocal delivers a packet to this host's own protocol handlers as
// if it had arrived addressed to us — the decapsulation path for tunneled
// multicast uses it (the inner destination is a group, not one of our
// addresses). Delivery is posted through the scheduler.
func (h *Host) InjectLocal(pkt ipv4.Packet) {
	h.postLocal(pkt)
}

// receiveFrame is the NIC receive callback.
func (ifc *Iface) receiveFrame(n *netsim.NIC, f netsim.Frame) {
	h := ifc.host
	switch f.Type {
	case netsim.EtherTypeARP:
		ifc.receiveARP(f)
	case netsim.EtherTypeIPv4:
		pkt, err := ipv4.Unmarshal(f.Payload)
		if err != nil {
			h.metrics.Drop(metrics.DropMalformed)
			return
		}
		pkt.TraceID = f.TraceID
		h.receiveIP(ifc, pkt)
	}
}

// receiveIP is the IP input path: ingress filter, local delivery or
// forwarding.
func (h *Host) receiveIP(ifc *Iface, pkt ipv4.Packet) {
	if h.Filter != nil && !h.Filter.checkIngress(ifc, &pkt) {
		h.traceFilterDrop("ingress", ifc, &pkt)
		return
	}

	local := pkt.Dst.IsBroadcast() ||
		h.Claimed(pkt.Dst) ||
		(ifc.prefix.Bits > 0 && pkt.Dst == ifc.prefix.BroadcastAddr()) ||
		(pkt.Dst.IsMulticast() && ifc.InGroup(pkt.Dst))

	// In-DH: a packet can be link-delivered to us even though its IP
	// destination is not one of our addresses (same-segment delivery to
	// our home address is the Claimed case above; but a correspondent
	// that is itself the target of such delivery needs nothing special).
	if local {
		h.deliverLocal(ifc, pkt)
		return
	}

	if pkt.Dst.IsMulticast() {
		// Not joined on this interface; multicast is never unicast-
		// forwarded here (inter-network multicast routing is out of
		// scope — see internal/stack/multicast.go).
		return
	}
	if !h.Forwarding {
		// Not ours, not forwarding: quietly drop (a host is not a router).
		return
	}
	h.forward(ifc, pkt)
}

func (h *Host) forward(in *Iface, pkt ipv4.Packet) {
	if pkt.TTL <= 1 {
		h.metrics.Drop(metrics.DropTTL)
		if tr := h.sim.Trace; tr.On() {
			tr.Record(netsim.Event{
				Kind: netsim.EventDropTTL, Time: h.sim.Now(), Where: h.name, PktID: pkt.TraceID,
			})
		}
		if h.TTLExceeded != nil {
			h.TTLExceeded(in, pkt)
		}
		return
	}
	pkt.TTL--

	rt, ok := h.routes.Lookup(pkt.Dst)
	if !ok {
		h.metrics.Drop(metrics.DropNoRoute)
		if tr := h.sim.Trace; tr.On() {
			tr.Record(netsim.Event{
				Kind: netsim.EventDropNoRoute, Time: h.sim.Now(), Where: h.name, PktID: pkt.TraceID,
				Detail: dstDetail(pkt.Dst),
			})
		}
		return
	}
	if rt.IsVirtual() {
		rt.Output(pkt)
		return
	}
	nexthop := rt.NextHop
	if nexthop.IsZero() {
		nexthop = pkt.Dst
	}
	h.metrics.IPForwarded.Inc()
	if pkt.Protocol == ipv4.ProtoIPIP || pkt.Protocol == ipv4.ProtoMinEnc || pkt.Protocol == ipv4.ProtoGRE {
		// A hop taken while still inside a tunnel: the indirect-route tax
		// the paper's overhead discussion is about.
		h.metrics.TunnelForwards.Inc()
	}
	if tr := h.sim.Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventForward, Time: h.sim.Now(), Where: h.name, PktID: pkt.TraceID,
			Detail: fwdDetail(pkt.Src, pkt.Dst, pkt.TTL),
		})
	}
	_ = h.transmit(rt.Iface, nexthop, pkt)
}

// deliverLocal reassembles and demultiplexes a packet destined for this
// host. A reassembled packet's payload is borrowed from the reassembler,
// like a frame's from the link layer: it is handed back once the demux
// returns, so handlers copy what they keep either way.
func (h *Host) deliverLocal(ifc *Iface, pkt ipv4.Packet) {
	if !pkt.MoreFrags && pkt.FragOffset == 0 {
		h.demux(ifc, pkt)
		return
	}
	if h.reasm == nil {
		h.reasm = ipv4.NewReassembler() // built on this host's first fragment
	}
	full, done, err := h.reasm.Add(pkt)
	if err != nil {
		h.metrics.Drop(metrics.DropMalformed)
		return
	}
	if !done {
		h.armReassemblyTimer()
		return
	}
	full.TraceID = pkt.TraceID
	h.Stats.Reassembled++
	h.demux(ifc, full)
	h.reasm.Release()
}

// demux accounts a whole packet as delivered and hands it to the first
// consumer that claims it: the multicast tap, an address claim, a protocol
// handler, a UDP socket.
func (h *Host) demux(ifc *Iface, full ipv4.Packet) {
	h.metrics.IPDelivered.Inc()
	if tr := h.sim.Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventDeliver, Time: h.sim.Now(), Where: h.name, PktID: full.TraceID,
			Detail: pktDetail(full.Src, full.Dst, full.Protocol, full.TotalLen()),
		})
	}
	if h.DeliveryHook != nil {
		h.DeliveryHook(ifc, full)
	}

	if full.Dst.IsMulticast() && h.MulticastTap != nil && h.MulticastTap(ifc, full) {
		return // consumed by the tap (e.g. a home agent's group relay)
	}
	if override, _ := h.claims.get(full.Dst); override != nil {
		override(ifc, full)
		return
	}
	if handler, ok := h.handlers.get(full.Protocol); ok {
		handler(ifc, full)
		return
	}
	if full.Protocol == ipv4.ProtoUDP && h.socks != nil {
		h.deliverUDP(full)
		return
	}
	h.metrics.Drop(metrics.DropNoProto)
}

func (h *Host) armReassemblyTimer() {
	if h.reasmTimer.Pending() {
		return
	}
	if h.reasmTimer == nil {
		// Built on first use: the one Timer this host ever uses.
		h.reasmTimer = vtime.NewTimer(func() { h.reasm.Expire() })
	}
	h.reasmTimer.Reset(h.sim.Sched, ReassemblyTimeout)
}
