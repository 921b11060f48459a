// Package dhcpsim implements the address-assignment path of Section 2:
// a mobile host arriving on a visited network "may [obtain a guest
// connection] by connecting to an Ethernet segment and having an address
// assigned automatically by DHCP [RFC1541]". The exchange is the classic
// DISCOVER/OFFER/REQUEST/ACK over UDP broadcast, simplified to the fields
// the simulation uses: offered address, prefix, gateway and lease time.
package dhcpsim

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// Message types.
const (
	typeDiscover uint8 = 1
	typeOffer    uint8 = 2
	typeRequest  uint8 = 3
	typeAck      uint8 = 5
	typeRelease  uint8 = 7
)

// message is the simplified DHCP wire unit.
type message struct {
	mtype      uint8
	xid        uint32 // transaction id, chosen by the client
	clientID   uint64 // stable client identity (the NIC's MAC)
	addr       ipv4.Addr
	prefixBits uint8
	gateway    ipv4.Addr
	leaseSec   uint32
}

const msgLen = 1 + 4 + 8 + 4 + 1 + 4 + 4

func (m *message) marshal() []byte {
	b := make([]byte, msgLen)
	b[0] = m.mtype
	binary.BigEndian.PutUint32(b[1:], m.xid)
	binary.BigEndian.PutUint64(b[5:], m.clientID)
	copy(b[13:17], m.addr[:])
	b[17] = m.prefixBits
	copy(b[18:22], m.gateway[:])
	binary.BigEndian.PutUint32(b[22:], m.leaseSec)
	return b
}

func parseMessage(b []byte) (message, error) {
	var m message
	if len(b) < msgLen {
		return m, fmt.Errorf("dhcpsim: truncated message (%d bytes)", len(b))
	}
	m.mtype = b[0]
	m.xid = binary.BigEndian.Uint32(b[1:])
	m.clientID = binary.BigEndian.Uint64(b[5:])
	copy(m.addr[:], b[13:17])
	m.prefixBits = b[17]
	copy(m.gateway[:], b[18:22])
	m.leaseSec = binary.BigEndian.Uint32(b[22:])
	return m, nil
}

// ServerStats counts server activity.
type ServerStats struct {
	Discovers uint64
	Offers    uint64
	Acks      uint64
	Releases  uint64
	PoolEmpty uint64
}

// Server leases addresses from a pool on one LAN.
type Server struct {
	host    *stack.Host
	sock    *stack.UDPSocket
	prefix  ipv4.Prefix
	gateway ipv4.Addr
	// LeaseSec is the lease duration granted (default 600).
	LeaseSec uint32

	pool   []ipv4.Addr
	leases map[uint64]*lease // by clientID

	Stats ServerStats
}

type lease struct {
	addr   ipv4.Addr
	expiry *vtime.Timer
}

// NewServer starts a DHCP server on host, leasing addresses first..last
// (host numbers within prefix) with the given gateway.
func NewServer(host *stack.Host, prefix ipv4.Prefix, gateway ipv4.Addr, first, last int) (*Server, error) {
	s := &Server{
		host:     host,
		prefix:   prefix,
		gateway:  gateway,
		LeaseSec: 600,
		leases:   make(map[uint64]*lease),
	}
	for i := first; i <= last; i++ {
		s.pool = append(s.pool, prefix.Host(i))
	}
	sock, err := host.OpenUDP(ipv4.Zero, udp.PortDHCPServer, s.serve)
	if err != nil {
		return nil, fmt.Errorf("dhcpsim: %w", err)
	}
	s.sock = sock
	return s, nil
}

// Available reports the number of unleased addresses.
func (s *Server) Available() int { return len(s.pool) }

func (s *Server) serve(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	m, err := parseMessage(payload)
	if err != nil {
		return
	}
	switch m.mtype {
	case typeDiscover:
		s.Stats.Discovers++
		addr, ok := s.addrFor(m.clientID)
		if !ok {
			s.Stats.PoolEmpty++
			return
		}
		s.Stats.Offers++
		s.reply(message{
			mtype: typeOffer, xid: m.xid, clientID: m.clientID,
			addr: addr, prefixBits: uint8(s.prefix.Bits), gateway: s.gateway,
			leaseSec: s.LeaseSec,
		})
	case typeRequest:
		s.Stats.Acks++
		addr, ok := s.addrFor(m.clientID)
		if !ok || addr != m.addr {
			return // stale request for an address we did not offer
		}
		s.commit(m.clientID, addr)
		s.reply(message{
			mtype: typeAck, xid: m.xid, clientID: m.clientID,
			addr: addr, prefixBits: uint8(s.prefix.Bits), gateway: s.gateway,
			leaseSec: s.LeaseSec,
		})
	case typeRelease:
		s.Stats.Releases++
		s.release(m.clientID)
	}
}

// addrFor returns the address this client holds or would be offered.
func (s *Server) addrFor(clientID uint64) (ipv4.Addr, bool) {
	if l, ok := s.leases[clientID]; ok {
		return l.addr, true
	}
	if len(s.pool) == 0 {
		return ipv4.Zero, false
	}
	return s.pool[0], true
}

func (s *Server) commit(clientID uint64, addr ipv4.Addr) {
	l, ok := s.leases[clientID]
	if !ok {
		// Take addr out of the pool.
		for i, a := range s.pool {
			if a == addr {
				s.pool = append(s.pool[:i], s.pool[i+1:]...)
				break
			}
		}
		l = &lease{addr: addr}
		l.expiry = vtime.NewTimer(func() { s.release(clientID) })
		s.leases[clientID] = l
	}
	l.expiry.Reset(s.host.Sched(), vtime.Duration(s.LeaseSec)*1e9)
}

func (s *Server) release(clientID uint64) {
	l, ok := s.leases[clientID]
	if !ok {
		return
	}
	l.expiry.Stop()
	delete(s.leases, clientID)
	s.pool = append(s.pool, l.addr)
}

// reply broadcasts (the client has no address yet).
func (s *Server) reply(m message) {
	_ = s.sock.SendToFrom(s.host.FirstAddr(), ipv4.Broadcast, udp.PortDHCPClient, m.marshal())
}

// Lease is the result a client obtains.
type Lease struct {
	Addr    ipv4.Addr
	Prefix  ipv4.Prefix
	Gateway ipv4.Addr
	TTLSec  uint32
}

// Client performs one DHCP acquisition on an interface.
type Client struct {
	host *stack.Host
	ifc  *stack.Iface
	sock *stack.UDPSocket

	xid   uint32
	state uint8 // 0 idle, 1 discovering, 2 requesting, 3 bound
	offer message
	timer *vtime.Timer
	tries int
	done  func(Lease, error)

	// Timeout and Retries configure patience (defaults 1s, 4).
	Timeout vtime.Duration
	Retries int
}

// NewClient creates a DHCP client bound to the interface.
func NewClient(host *stack.Host, ifc *stack.Iface) (*Client, error) {
	c := &Client{host: host, ifc: ifc, Timeout: vtime.Duration(1e9), Retries: 4}
	c.timer = vtime.NewTimer(c.onTimeout)
	sock, err := host.OpenUDP(ipv4.Zero, udp.PortDHCPClient, c.receive)
	if err != nil {
		return nil, fmt.Errorf("dhcpsim: client: %w", err)
	}
	c.sock = sock
	return c, nil
}

// Acquire runs DISCOVER/OFFER/REQUEST/ACK; done receives the lease. The
// interface needs no address — everything is broadcast.
func (c *Client) Acquire(done func(Lease, error)) {
	c.xid++
	c.state = 1
	c.tries = 0
	c.done = done
	c.sendDiscover()
}

func (c *Client) clientID() uint64 { return uint64(c.ifc.NIC().MAC()) }

func (c *Client) sendDiscover() {
	m := message{mtype: typeDiscover, xid: c.xid, clientID: c.clientID()}
	_ = c.sock.SendToFrom(c.ifc.Addr(), ipv4.Broadcast, udp.PortDHCPServer, m.marshal())
	c.timer.Reset(c.host.Sched(), c.Timeout)
}

func (c *Client) sendRequest() {
	m := message{mtype: typeRequest, xid: c.xid, clientID: c.clientID(), addr: c.offer.addr}
	_ = c.sock.SendToFrom(c.ifc.Addr(), ipv4.Broadcast, udp.PortDHCPServer, m.marshal())
	c.timer.Reset(c.host.Sched(), c.Timeout)
}

// Release gives the lease back.
func (c *Client) Release() {
	if c.state != 3 {
		return
	}
	m := message{mtype: typeRelease, xid: c.xid, clientID: c.clientID()}
	_ = c.sock.SendToFrom(c.ifc.Addr(), ipv4.Broadcast, udp.PortDHCPServer, m.marshal())
	c.state = 0
}

// onTimeout resends the unanswered DISCOVER or REQUEST, or gives up
// after Retries tries.
func (c *Client) onTimeout() {
	c.tries++
	if c.tries >= c.Retries {
		st := c.state
		c.state = 0
		if c.done != nil && st != 0 && st != 3 {
			c.done(Lease{}, fmt.Errorf("dhcpsim: acquisition timed out"))
		}
		return
	}
	if c.state == 1 {
		c.sendDiscover()
	} else {
		c.sendRequest()
	}
}

func (c *Client) receive(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	m, err := parseMessage(payload)
	if err != nil || m.clientID != c.clientID() || m.xid != c.xid {
		return
	}
	switch {
	case m.mtype == typeOffer && c.state == 1:
		c.offer = m
		c.state = 2
		c.tries = 0
		c.sendRequest()
	case m.mtype == typeAck && c.state == 2:
		c.state = 3
		c.timer.Stop()
		if c.done != nil {
			c.done(Lease{
				Addr:    m.addr,
				Prefix:  ipv4.PrefixFrom(m.addr, int(m.prefixBits)),
				Gateway: m.gateway,
				TTLSec:  m.leaseSec,
			}, nil)
		}
	}
}
