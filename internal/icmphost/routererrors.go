package icmphost

import (
	"mob4x4/internal/icmp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

// EnableRouterErrors wires ICMP error generation into a router's drop
// paths: TTL expiry produces Time Exceeded (what traceroute listens for)
// and a DF packet exceeding the output MTU produces Destination
// Unreachable / Fragmentation Needed (what path-MTU discovery listens
// for). The errors are sourced from the address of the interface the
// offending packet arrived on, per router convention.
func EnableRouterErrors(h *stack.Host) {
	h.TTLExceeded = func(in *stack.Iface, pkt ipv4.Packet) {
		if pkt.Protocol == ipv4.ProtoICMP {
			// Crude anti-storm rule: never answer ICMP with ICMP
			// errors about errors. (Echo requests deserve answers, but
			// distinguishing would require parsing; traceroute in this
			// simulation probes with UDP, the classic Van Jacobson
			// arrangement, so nothing is lost.)
			return
		}
		src := routerErrorSource(h, in)
		if src.IsZero() {
			return
		}
		quote := netsim.GetBuf()
		if msg, err := icmp.TimeExceeded(quote.B, pkt); err == nil {
			_ = Send(h, src, pkt.Src, &msg)
		}
		netsim.PutBuf(quote)
	}
	h.FragNeeded = func(out *stack.Iface, pkt ipv4.Packet, mtu int) {
		if pkt.Protocol == ipv4.ProtoICMP {
			return
		}
		src := routerErrorSource(h, nil)
		if src.IsZero() {
			return
		}
		quote := netsim.GetBuf()
		if msg, err := icmp.FragNeeded(quote.B, pkt, mtu); err == nil {
			_ = Send(h, src, pkt.Src, &msg)
		}
		netsim.PutBuf(quote)
	}
}

func routerErrorSource(h *stack.Host, preferred *stack.Iface) ipv4.Addr {
	if preferred != nil && !preferred.Addr().IsZero() {
		return preferred.Addr()
	}
	return h.FirstAddr()
}

// TracerouteHop is one probe result.
type TracerouteHop struct {
	TTL     int
	From    ipv4.Addr // router (or destination) that answered
	Reached bool      // true when the destination itself answered
}

// Traceroute runs the classic TTL sweep from a host toward dst with UDP
// probes (the Van Jacobson arrangement), collecting the Time Exceeded
// senders hop by hop. Results land in *hops as they arrive; done fires
// when the destination answers or maxTTL is exhausted. Routers on the
// path need EnableRouterErrors; the destination needs RespondToProbes
// (this simulation's hosts drop unknown-port UDP silently instead of
// sending Port Unreachable, so arrival is signalled by a UDP answer).
// The caller drives the scheduler.
func Traceroute(h *stack.Host, src *ICMP, dst ipv4.Addr, maxTTL int,
	hops *[]TracerouteHop, done func()) {
	const probePort = uint16(33434)
	const probeTimeout = vtime.Duration(2e9)

	finished := false
	finish := func() {
		if !finished {
			finished = true
			if done != nil {
				done()
			}
		}
	}
	var probe func(ttl int)
	var pending *vtime.Timer
	answered := func(hop TracerouteHop) {
		if finished {
			return
		}
		pending.Stop()
		*hops = append(*hops, hop)
		if hop.Reached || hop.TTL >= maxTTL {
			finish()
			return
		}
		probe(hop.TTL + 1)
	}

	sock, err := h.OpenUDP(ipv4.Zero, 0, func(s ipv4.Addr, sp uint16, d ipv4.Addr, p []byte) {
		// Response from the destination's probe responder.
		answered(TracerouteHop{TTL: len(*hops) + 1, From: s, Reached: true})
	})
	if err != nil {
		finish()
		return
	}

	prevOnError := src.OnError
	src.OnError = func(from ipv4.Addr, msg icmp.Message) {
		if prevOnError != nil {
			prevOnError(from, msg)
		}
		if msg.Type != icmp.TypeTimeExceeded {
			return
		}
		answered(TracerouteHop{TTL: len(*hops) + 1, From: from})
	}
	probe = func(ttl int) {
		d := udpDatagram(sock.Port(), probePort, []byte("traceroute-probe"))
		_ = h.SendIP(ipv4.Packet{
			Header: ipv4.Header{
				Protocol: ipv4.ProtoUDP, TTL: uint8(ttl),
				Src: h.SourceForDestination(dst), Dst: dst,
			},
			Payload: d,
		})
		// A probe can vanish (expired inside a tunnel, whose errors go
		// to the tunnel endpoint, not to us — Mobile IP hides hops).
		// Record a silent hop and move on.
		pending = vtime.NewTimer(func() { answered(TracerouteHop{TTL: ttl}) })
		pending.Reset(h.Sched(), probeTimeout)
	}
	probe(1)
}

// RespondToProbes makes a host answer traceroute probes (UDP port 33434)
// so the sweep can detect arrival.
func RespondToProbes(h *stack.Host) error {
	var sock *stack.UDPSocket
	sock, err := h.OpenUDP(ipv4.Zero, 33434, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, p []byte) {
		_ = sock.SendToFrom(dst, src, srcPort, []byte("reached"))
	})
	return err
}

// udpDatagram builds a UDP payload without importing package udp (which
// would be fine, but the zero-checksum form keeps this helper tiny).
func udpDatagram(srcPort, dstPort uint16, body []byte) []byte {
	b := make([]byte, 8+len(body))
	b[0], b[1] = byte(srcPort>>8), byte(srcPort)
	b[2], b[3] = byte(dstPort>>8), byte(dstPort)
	total := 8 + len(body)
	b[4], b[5] = byte(total>>8), byte(total)
	copy(b[8:], body)
	return b
}
