package stack

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/udp"
)

// UDPHandler receives datagrams delivered to a socket.
type UDPHandler func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte)

// UDPSocket is a bound UDP port on a host. The bind address semantics
// follow Section 7.1.1 of the paper: a socket bound to a specific local
// address pins that address as the source of everything it sends (a
// mobile-aware application binding to the care-of address gets plain
// Out-DT delivery and bypasses Mobile IP); a socket bound to the zero
// address lets the routing code — including the mobility policy — choose.
type UDPSocket struct {
	host      *Host
	bindAddr  ipv4.Addr // zero = let routing choose
	port      uint16
	handler   UDPHandler
	closed    bool
	Delivered uint64
	Sent      uint64
}

// OpenUDP binds a UDP socket. port 0 allocates an ephemeral port.
// bindAddr zero means "any": received datagrams match by port alone, and
// sends let the routing code pick the source address.
func (h *Host) OpenUDP(bindAddr ipv4.Addr, port uint16, handler UDPHandler) (*UDPSocket, error) {
	if port == 0 {
		for {
			h.ephemeral++
			if h.ephemeral < 49152 {
				h.ephemeral = 49152
			}
			if _, used := h.socks.get(h.ephemeral); !used {
				port = h.ephemeral
				break
			}
		}
	}
	if _, used := h.socks.get(port); used {
		return nil, fmt.Errorf("%s: udp port %d already bound", h.name, port)
	}
	s := &UDPSocket{host: h, bindAddr: bindAddr, port: port, handler: handler}
	tableFor(&h.socks).set(port, s)
	return s, nil
}

// Port returns the bound port.
func (s *UDPSocket) Port() uint16 { return s.port }

// BindAddr returns the bound local address (zero for any).
func (s *UDPSocket) BindAddr() ipv4.Addr { return s.bindAddr }

// Rebind changes the socket's pinned local address (a mobile-aware
// application updating its preference after a move).
func (s *UDPSocket) Rebind(addr ipv4.Addr) { s.bindAddr = addr }

// Close releases the port.
func (s *UDPSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.host.socks.del(s.port)
}

// SendTo transmits a datagram to dst:dstPort. The source address is the
// socket's bind address if set, otherwise zero (filled by routing).
func (s *UDPSocket) SendTo(dst ipv4.Addr, dstPort uint16, payload []byte) error {
	return s.sendFrom(s.bindAddr, dst, dstPort, payload)
}

// SendToFrom transmits a datagram with an explicit source address,
// overriding the bind address. The mobility code uses this to emit
// registration requests from the care-of address (Out-DT: "our Mobile IP
// support software itself communicates using the temporary address when
// registering with the home agent").
func (s *UDPSocket) SendToFrom(src, dst ipv4.Addr, dstPort uint16, payload []byte) error {
	return s.sendFrom(src, dst, dstPort, payload)
}

func (s *UDPSocket) sendFrom(src, dst ipv4.Addr, dstPort uint16, payload []byte) error {
	if s.closed {
		return fmt.Errorf("udp: socket closed")
	}
	d := udp.Datagram{SrcPort: s.port, DstPort: dstPort, Payload: payload}
	// The checksum covers the pseudo-header, so the final source address
	// must be known here. When the socket is unbound we resolve the
	// source the way the kernel does: ask routing which interface would
	// carry the packet. The mobility override participates via
	// SourceForDestination.
	// A zero source is legitimate for broadcasts: a host with no address
	// yet (DHCP DISCOVER) sends from 0.0.0.0.
	if src.IsZero() && !dst.IsBroadcast() {
		// Resolve with the transport context: the mobility policy's port
		// heuristic (§7.1.2) keys off the destination port, so an unbound
		// socket must present it or short-lived services could never be
		// elected onto the temporary address.
		src = s.host.SourceForDestinationPort(dst, ipv4.ProtoUDP, dstPort)
		if src.IsZero() {
			return fmt.Errorf("%s: no source address for %s", s.host.name, dst)
		}
	}
	// Marshal into a pooled scratch buffer: SendIP copies the payload
	// (into a pooled frame, a queued clone, or a local-delivery buffer)
	// before returning, so the scratch can be recycled immediately.
	buf := netsim.GetBuf()
	b, err := d.AppendMarshal(src, dst, buf.B)
	if err != nil {
		netsim.PutBuf(buf)
		return err
	}
	buf.B = b
	s.Sent++
	err = s.host.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoUDP, Src: src, Dst: dst},
		Payload: b,
	})
	netsim.PutBuf(buf)
	return err
}

// SourceForDestination returns the source address the host would use for a
// packet to dst: the mobility override's choice if one is installed, else
// the address of the output interface. It mirrors the paper's observation
// that the source/encapsulation decision "must also be made when TCP
// decides what address to use as the endpoint identifier" — transports
// call this at connection setup.
func (h *Host) SourceForDestination(dst ipv4.Addr) ipv4.Addr {
	return h.SourceForDestinationPort(dst, 0, 0)
}

// SourceForDestinationPort is SourceForDestination with transport
// context. The route override may consult the destination port (the
// paper's §7.1.2 port heuristic elects the temporary address for
// short-lived services), so source resolution for an unbound socket
// must present the port the real packet will carry. proto 0 means "no
// transport context" and behaves exactly like SourceForDestination.
func (h *Host) SourceForDestinationPort(dst ipv4.Addr, proto uint8, dstPort uint16) ipv4.Addr {
	probe := ipv4.Packet{Header: ipv4.Header{Protocol: proto, Dst: dst}}
	if proto != 0 {
		// portProbe is a Host-owned scratch (hosts are single-goroutine,
		// like everything on a Sim): a stack [4]byte here would escape
		// through the override call and cost an allocation per send.
		binary.BigEndian.PutUint16(h.portProbe[2:], dstPort)
		probe.Payload = h.portProbe[:]
	}
	if h.RouteOverride != nil {
		rt, src, ok := h.RouteOverride(probe)
		// The override may pin a source address even when it falls
		// through to normal routing (the Out-DT and Out-DH cases).
		if !src.IsZero() {
			return src
		}
		if ok && rt.Iface != nil {
			return rt.Iface.addr
		}
	}
	return h.SourceForDestinationPlain(dst)
}

// SourceForDestinationPlain is SourceForDestination ignoring any route
// override: the source address the plain route table implies. Mobility
// components use it to pick outer tunnel sources without recursing into
// their own policy.
func (h *Host) SourceForDestinationPlain(dst ipv4.Addr) ipv4.Addr {
	if h.Claimed(dst) {
		return dst
	}
	if rt, ok := h.routes.Lookup(dst); ok && rt.Iface != nil {
		return rt.Iface.addr
	}
	return ipv4.Zero
}

// deliverUDP hands a locally delivered datagram to the socket bound to its
// destination port. Once a host has opened a socket, UDP comes here unless
// a UDP handler was registered with Handle.
func (h *Host) deliverUDP(pkt ipv4.Packet) {
	d, err := udp.Unmarshal(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		return
	}
	sock, ok := h.socks.get(d.DstPort)
	if !ok {
		return
	}
	// A socket bound to a specific address only accepts datagrams
	// addressed to it (broadcast excepted).
	if !sock.bindAddr.IsZero() && pkt.Dst != sock.bindAddr && !pkt.Dst.IsBroadcast() {
		return
	}
	sock.Delivered++
	if sock.handler != nil {
		sock.handler(pkt.Src, d.SrcPort, pkt.Dst, d.Payload)
	}
}
