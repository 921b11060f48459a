package sock

import (
	"context"
	"fmt"
	"net"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/stack"
	"mob4x4/internal/tcplite"
)

// Net is one host's facade entry point: Dial / Listen / ListenPacket
// with stdlib signatures, bound to the host's stack and transport —
// and therefore to its mobility policy. Source addresses for outbound
// connections and unbound datagrams are chosen by the host's policy
// table with transport context (the §7.1.2 port heuristic), exactly as
// for raw sockets; the facade adds no addressing decisions of its own.
//
// Blocking methods require a started Driver. ListenPacketCore runs on
// the event loop (no Driver needed) for deterministic workloads; TCP has
// only the blocking layer.
type Net struct {
	d    *Driver
	host *stack.Host
	tcp  *tcplite.Endpoint

	nextListenPort uint16 // Listen(":0") allocator
}

// NewNet builds a facade for host. tcp may be shared with other users
// of the endpoint; d may be nil when only ListenPacketCore is used.
func NewNet(d *Driver, host *stack.Host, tcp *tcplite.Endpoint) *Net {
	return &Net{d: d, host: host, tcp: tcp, nextListenPort: 50000}
}

// Driver returns the driver (nil in core-only use).
func (n *Net) Driver() *Driver { return n.d }

// Dial connects to address over network ("tcp" or "udp"). TCP dials
// block until the handshake completes or fails; UDP dials return a
// connected packet socket immediately.
func (n *Net) Dial(network, address string) (net.Conn, error) {
	raddr, err := resolveAddr(network, address)
	if err != nil {
		return nil, err
	}
	if raddr.Proto == "tcp" {
		return n.dialTCP(raddr)
	}
	return n.dialUDP(raddr)
}

// DialContext is Dial with the stdlib signature net/http's Transport
// wants. The context's cancellation is NOT honored mid-handshake: the
// facade runs on virtual time, where a context carrying a real-clock
// deadline is meaningless. Handshake failures (reset, retransmission
// timeout) still fail the dial.
func (n *Net) DialContext(_ context.Context, network, address string) (net.Conn, error) {
	return n.Dial(network, address)
}

func (n *Net) dialTCP(raddr Addr) (net.Conn, error) {
	est := make(chan error, 1)
	var (
		c   *Conn
		err error
	)
	n.d.do(func() {
		var tc *tcplite.Conn
		tc, err = n.tcp.Dial(ipv4.Zero, raddr.IP, raddr.Port)
		if err != nil {
			return
		}
		c = newConn(n.d, tc, "tcp")
		if c.established {
			est <- nil
		} else {
			c.estWaiters = append(c.estWaiters, est)
		}
	})
	if err != nil {
		return nil, opError("dial", "tcp", nil, raddr, err)
	}
	if e := <-est; e != nil {
		return nil, opError("dial", "tcp", nil, raddr, e)
	}
	return c, nil
}

func (n *Net) dialUDP(raddr Addr) (net.Conn, error) {
	var (
		pc  *PacketConn
		err error
	)
	n.d.do(func() { pc, err = n.openPacket(Addr{Proto: "udp"}) })
	if err != nil {
		return nil, err
	}
	pc.connected, pc.peer = true, raddr
	return pc, nil
}

// Listen announces on a TCP address. Port 0 allocates one.
func (n *Net) Listen(network, address string) (net.Listener, error) {
	laddr, err := resolveAddr(network, address)
	if err != nil {
		return nil, err
	}
	if laddr.Proto != "tcp" {
		return nil, net.UnknownNetworkError(network)
	}
	var l *Listener
	n.d.do(func() { l, err = n.listen(laddr) })
	if err != nil {
		return nil, err
	}
	return l, nil
}

func (n *Net) listen(laddr Addr) (*Listener, error) {
	l := &Listener{d: n.d, addr: laddr}
	if laddr.Port == 0 {
		for tries := 0; ; tries++ {
			if tries > 65535 {
				return nil, fmt.Errorf("sock: no free listen port")
			}
			n.nextListenPort++
			if n.nextListenPort < 50000 {
				n.nextListenPort = 50000
			}
			tl, err := n.tcp.Listen(n.nextListenPort, l.onSYN)
			if err == nil {
				l.addr.Port = n.nextListenPort
				l.tl = tl
				return l, nil
			}
		}
	}
	tl, err := n.tcp.Listen(laddr.Port, l.onSYN)
	if err != nil {
		return nil, opError("listen", "tcp", laddr, nil, err)
	}
	l.tl = tl
	return l, nil
}

// ListenPacket binds a UDP facade socket. An empty or zero host leaves
// the socket unbound — sends resolve their source through the mobility
// policy per destination (§7.1.1/§7.1.2); a specific host pins it.
func (n *Net) ListenPacket(network, address string) (net.PacketConn, error) {
	laddr, err := resolveAddr(network, address)
	if err != nil {
		return nil, err
	}
	if laddr.Proto != "udp" {
		return nil, net.UnknownNetworkError(network)
	}
	var pc *PacketConn
	n.d.do(func() { pc, err = n.openPacket(laddr) })
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// ListenPacketCore is ListenPacket from the event loop. Event-loop
// context only.
func (n *Net) ListenPacketCore(laddr Addr) (*PacketConn, error) {
	laddr.Proto = "udp"
	return n.openPacket(laddr)
}

func (n *Net) openPacket(laddr Addr) (*PacketConn, error) {
	pc := &PacketConn{d: n.d}
	us, err := n.host.OpenUDP(laddr.IP, laddr.Port, pc.onDatagram)
	if err != nil {
		return nil, opError("listen", "udp", laddr, nil, err)
	}
	pc.us = us
	pc.local = Addr{IP: laddr.IP, Port: us.Port(), Proto: "udp"}
	return pc, nil
}
