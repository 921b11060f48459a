package tcplite

import (
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

// connKey identifies a connection: the classic 4-tuple. The local address
// is part of the key — that is the whole point of the paper's Section 4:
// a conversation keyed to the home address survives movement, one keyed
// to a temporary care-of address does not.
type connKey struct {
	localAddr  ipv4.Addr
	localPort  uint16
	remoteAddr ipv4.Addr
	remotePort uint16
}

// Listener accepts inbound connections on a port.
type Listener struct {
	ep     *Endpoint
	port   uint16
	accept func(*Conn)
	closed bool
}

// Close stops accepting (existing connections are unaffected).
func (l *Listener) Close() {
	if !l.closed {
		l.closed = true
		delete(l.ep.listeners, l.port)
	}
}

// FeedbackListener receives the Section 7.1.2 signals: original
// transmissions vs retransmissions, per remote address. Implemented by
// the mobility selector glue.
type FeedbackListener interface {
	// Retransmission reports that a segment to remote had to be resent.
	Retransmission(remote ipv4.Addr)
	// Progress reports that new data to/from remote was acknowledged
	// (the current delivery method demonstrably works).
	Progress(remote ipv4.Addr)
}

// EndpointStats aggregates transport activity on a host.
type EndpointStats struct {
	SegsSent        uint64
	SegsReceived    uint64
	Retransmissions uint64
	FastRetransmits uint64
	BadSegments     uint64
	Resets          uint64
	ConnsOpened     uint64
	ConnsAccepted   uint64
	ConnsFailed     uint64
}

// Segment sizing and the initial retransmission timeout, the same for
// every connection.
const (
	mss        = 960                   // max payload per segment
	window     = 8                     // max segments in flight
	initialRTO = vtime.Duration(200e6) // 200ms, until an RTT sample exists
)

// Endpoint is a host's transport layer: demultiplexer, listener table and
// connection factory. Create one per host with New.
type Endpoint struct {
	host      *stack.Host
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	ephemeral uint16
	isn       uint32 // deterministic initial sequence number source

	// Feedback, when non-nil, receives retransmission/progress signals.
	Feedback FeedbackListener

	// MaxRetries is the per-segment retry budget (default 8), applied to
	// new connections.
	MaxRetries int

	Stats EndpointStats
}

// New installs a transport endpoint on the host.
func New(h *stack.Host) *Endpoint {
	ep := &Endpoint{
		host:       h,
		conns:      make(map[connKey]*Conn),
		listeners:  make(map[uint16]*Listener),
		ephemeral:  40000,
		isn:        1,
		MaxRetries: 8,
	}
	h.Handle(ipv4.ProtoTCP, ep.receive)
	return ep
}

// Host returns the owning host.
func (ep *Endpoint) Host() *stack.Host { return ep.host }

// Listen registers an accept callback for a port.
func (ep *Endpoint) Listen(port uint16, accept func(*Conn)) (*Listener, error) {
	if _, dup := ep.listeners[port]; dup {
		return nil, fmt.Errorf("tcplite: port %d already listening", port)
	}
	l := &Listener{ep: ep, port: port, accept: accept}
	ep.listeners[port] = l
	return l, nil
}

// Dial opens a connection to remote:port. localAddr selects the endpoint
// identifier: pass the zero address to let the host's routing (including
// the mobility policy) choose — exactly the decision point the paper
// describes for TCP connection setup.
func (ep *Endpoint) Dial(localAddr, remote ipv4.Addr, port uint16) (*Conn, error) {
	if localAddr.IsZero() {
		// Resolve with transport context: the mobility policy's §7.1.2
		// port heuristic keys off the destination port, so TCP setup
		// must present it exactly as an unbound UDP send does.
		localAddr = ep.host.SourceForDestinationPort(remote, ipv4.ProtoTCP, port)
		if localAddr.IsZero() {
			return nil, fmt.Errorf("tcplite: no source address for %s", remote)
		}
	}
	key := connKey{localAddr, ep.allocPort(), remote, port}
	if _, dup := ep.conns[key]; dup {
		return nil, fmt.Errorf("tcplite: connection already exists: %+v", key)
	}
	c := newConn(ep, key, false)
	ep.conns[key] = c
	ep.Stats.ConnsOpened++
	c.sendSYN()
	return c, nil
}

func (ep *Endpoint) allocPort() uint16 {
	for {
		ep.ephemeral++
		if ep.ephemeral < 40000 {
			ep.ephemeral = 40000
		}
		inUse := false
		//mob4x4vet:allow mapiter membership scan; only a boolean escapes the loop
		for k := range ep.conns {
			if k.localPort == ep.ephemeral {
				inUse = true
				break
			}
		}
		if !inUse {
			return ep.ephemeral
		}
	}
}

func (ep *Endpoint) nextISN() uint32 {
	ep.isn += 64000
	return ep.isn
}

// receive demultiplexes inbound segments.
func (ep *Endpoint) receive(ifc *stack.Iface, pkt ipv4.Packet) {
	seg, err := parseSegment(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		ep.Stats.BadSegments++
		return
	}
	ep.Stats.SegsReceived++
	key := connKey{pkt.Dst, seg.dstPort, pkt.Src, seg.srcPort}
	if c, ok := ep.conns[key]; ok {
		c.handle(seg)
		return
	}
	// New connection?
	if seg.has(flagSYN) && !seg.has(flagACK) {
		if l, ok := ep.listeners[seg.dstPort]; ok && !l.closed {
			c := newConn(ep, key, true)
			ep.conns[key] = c
			ep.Stats.ConnsAccepted++
			// The accept callback runs before the SYN is processed so a
			// consumer can refuse the connection (Abort) before any
			// SYN|ACK goes out — the way a kernel's bound-socket filter
			// rejects ahead of answering. handle on an aborted (closed)
			// conn is a no-op.
			if l.accept != nil {
				l.accept(c)
			}
			c.handle(seg)
			return
		}
	}
	// No home for this segment: RST unless it was itself a reset.
	if !seg.has(flagRST) {
		ep.sendRaw(key.localAddr, key.remoteAddr, segment{
			srcPort: seg.dstPort, dstPort: seg.srcPort,
			seq: seg.ack, ack: seg.seq + uint32(len(seg.payload)), flags: flagRST | flagACK,
		})
	}
}

func (ep *Endpoint) sendRaw(src, dst ipv4.Addr, seg segment) {
	ep.Stats.SegsSent++
	// Marshal into a pooled scratch buffer; SendIP copies the payload
	// before returning, so it can be recycled immediately.
	buf := netsim.GetBuf()
	buf.B = seg.appendMarshal(src, dst, buf.B)
	_ = ep.host.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoTCP, Src: src, Dst: dst},
		Payload: buf.B,
	})
	netsim.PutBuf(buf)
}

// ConnCount reports live connections (debug/tests).
func (ep *Endpoint) ConnCount() int { return len(ep.conns) }
