package sock

import (
	"net"
	"time"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

// dgramQueueMax bounds the receive queue of a facade packet conn; like
// a kernel socket buffer, arrivals past the bound are dropped (newest
// dropped — a deterministic policy, unlike a race between reader and
// interrupt).
const dgramQueueMax = 512

// dgram is one queued datagram.
type dgram struct {
	payload []byte
	src     Addr
}

// pcWaiter is one parked ReadFrom call.
type pcWaiter struct {
	p    []byte
	n    int
	src  Addr
	err  error
	done chan struct{}
}

// PacketConn adapts a stack UDP socket to net.PacketConn — and to
// net.Conn when connected to a peer (ListenPacket yields the former,
// Dial the latter; same object, stdlib UDPConn style). The socket is
// bound to the zero address unless the caller asked otherwise, so
// every send resolves its source through the host's mobility policy
// with transport context — the §7.1.2 port heuristic applies to facade
// datagrams exactly as to raw ones.
type PacketConn struct {
	d  *Driver
	us *stack.UDPSocket

	local Addr

	connected bool
	peer      Addr

	queue   []dgram
	dropped uint64 // arrivals discarded on queue overflow
	readers []*pcWaiter
	closed  bool

	rdDeadline vtime.Time
	rdHas      bool
	rdTimer    *vtime.Timer
	wrDeadline vtime.Time
	wrHas      bool

	// event, when set (core mode), fires on the event loop whenever a
	// datagram is queued.
	event func()
}

// SetEvent installs the core-layer notification hook. Event-loop
// context only.
func (p *PacketConn) SetEvent(fn func()) { p.event = fn }

// LocalAddr implements net.PacketConn.
func (p *PacketConn) LocalAddr() net.Addr { return p.local }

// RemoteAddr returns the connected peer (zero Addr when unconnected).
func (p *PacketConn) RemoteAddr() net.Addr {
	if !p.connected {
		return Addr{Proto: "udp"}
	}
	return p.peer
}

// Dropped reports datagrams discarded because the receive queue was
// full.
func (p *PacketConn) Dropped() uint64 { return p.dropped }

// Connect pins a peer address: inbound datagrams from other sources
// are filtered out and the net.Conn methods (Read/Write) become
// meaningful, mirroring a connected kernel UDP socket.
func (p *PacketConn) Connect(addr net.Addr) error {
	a, ok := addr.(Addr)
	if !ok {
		return p.opErr("connect", net.ErrClosed)
	}
	a.Proto = "udp"
	var err error
	p.d.do(func() {
		if p.closed {
			err = p.opErr("connect", net.ErrClosed)
			return
		}
		p.connected, p.peer = true, a
	})
	return err
}

func (p *PacketConn) opErr(op string, err error) error {
	var remote net.Addr
	if p.connected {
		remote = p.peer
	}
	return opError(op, "udp", p.local, remote, err)
}

// onDatagram is the stack delivery callback: copy (the payload aliases
// a pooled buffer) and queue. The copy goes into the storage of a slot
// an earlier datagram left behind (see popInto), so a socket that reads
// as fast as it receives stops allocating. Event-loop context.
func (p *PacketConn) onDatagram(src ipv4.Addr, srcPort uint16, _ ipv4.Addr, payload []byte) {
	if p.closed {
		return
	}
	from := Addr{IP: src, Port: srcPort, Proto: "udp"}
	if p.connected && (from.IP != p.peer.IP || from.Port != p.peer.Port) {
		return // connected socket: filter foreign sources, like the kernel
	}
	if len(p.queue) >= dgramQueueMax {
		p.dropped++
		return
	}
	n := len(p.queue)
	if n < cap(p.queue) {
		p.queue = p.queue[:n+1]
	} else {
		p.queue = append(p.queue, dgram{})
	}
	d := &p.queue[n]
	d.payload = append(d.payload[:0], payload...)
	d.src = from
	p.pumpReaders()
	if p.event != nil {
		p.event()
	}
}

// --- read path ---

// ReadFrom implements net.PacketConn. Short reads truncate the
// datagram (the remainder is discarded, standard UDP semantics).
func (p *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	var (
		n   int
		src Addr
		err error
		w   *pcWaiter
	)
	p.d.do(func() { n, src, err, w = p.startRead(b) })
	if w == nil {
		if err != nil {
			return n, nil, err
		}
		return n, src, nil
	}
	<-w.done
	if w.err != nil {
		return w.n, nil, w.err
	}
	return w.n, w.src, nil
}

// Read implements net.Conn for connected sockets.
func (p *PacketConn) Read(b []byte) (int, error) {
	n, _, err := p.ReadFrom(b)
	return n, err
}

func (p *PacketConn) startRead(b []byte) (int, Addr, error, *pcWaiter) {
	if p.closed {
		return 0, Addr{}, p.opErr("read", net.ErrClosed), nil
	}
	if len(p.queue) > 0 {
		n, src := p.popInto(b)
		return n, src, nil, nil
	}
	if p.rdHas && !p.rdDeadline.After(p.d.sched.Now()) {
		return 0, Addr{}, p.opErr("read", errTimeout), nil
	}
	w := &pcWaiter{p: b, done: make(chan struct{})}
	p.readers = append(p.readers, w)
	return 0, Addr{}, nil, w
}

// popInto reads the oldest queued datagram into b. Its payload storage
// is parked in the slot just past the queue's end for onDatagram to
// reuse.
func (p *PacketConn) popInto(b []byte) (int, Addr) {
	d := p.queue[0]
	n := copy(b, d.payload)
	last := len(p.queue) - 1
	copy(p.queue, p.queue[1:])
	p.queue[last] = dgram{payload: d.payload[:0]}
	p.queue = p.queue[:last]
	return n, d.src
}

// TryReadFrom is the core-layer read: pops one queued datagram without
// blocking; ok reports whether one was available. Event-loop context
// only.
func (p *PacketConn) TryReadFrom(b []byte) (n int, src Addr, ok bool, err error) {
	if p.closed {
		return 0, Addr{}, false, p.opErr("read", net.ErrClosed)
	}
	if len(p.queue) == 0 {
		return 0, Addr{}, false, nil
	}
	n, src = p.popInto(b)
	return n, src, true, nil
}

func (p *PacketConn) pumpReaders() {
	for len(p.readers) > 0 {
		w := p.readers[0]
		switch {
		case len(p.queue) > 0:
			w.n, w.src = p.popInto(w.p)
		case p.closed:
			w.err = p.opErr("read", net.ErrClosed)
		default:
			return
		}
		p.readers = p.readers[1:]
		close(w.done)
		p.d.noteActivity()
	}
}

// --- write path ---

// WriteTo implements net.PacketConn. Sends never block: the simulated
// NIC queues or drops, so only a closed socket, an expired write
// deadline or an unroutable destination fail.
func (p *PacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	dst, ok := addr.(Addr)
	if !ok || dst.Proto != "udp" {
		return 0, p.opErr("write", net.ErrClosed)
	}
	var err error
	p.d.do(func() { err = p.writeCore(b, dst) })
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// Write implements net.Conn for connected sockets.
func (p *PacketConn) Write(b []byte) (int, error) {
	if !p.connected {
		return 0, p.opErr("write", net.ErrClosed)
	}
	return p.WriteTo(b, p.peer)
}

// WriteToCore is the core-layer send. Event-loop context only.
func (p *PacketConn) WriteToCore(b []byte, dst Addr) error { return p.writeCore(b, dst) }

func (p *PacketConn) writeCore(b []byte, dst Addr) error {
	if p.closed {
		return p.opErr("write", net.ErrClosed)
	}
	if p.wrHas && !p.wrDeadline.After(p.d.sched.Now()) {
		return p.opErr("write", errTimeout)
	}
	if err := p.us.SendTo(dst.IP, dst.Port, b); err != nil {
		return opError("write", "udp", p.local, dst, err)
	}
	return nil
}

// --- close ---

// Close implements net.PacketConn.
func (p *PacketConn) Close() error {
	p.d.do(func() { p.closeCore() })
	return nil
}

// CloseCore is the core-layer close. Event-loop context only.
func (p *PacketConn) CloseCore() { p.closeCore() }

func (p *PacketConn) closeCore() {
	if p.closed {
		return
	}
	p.closed = true
	p.us.Close()
	for _, w := range p.readers {
		w.err = p.opErr("read", net.ErrClosed)
		close(w.done)
		p.d.noteActivity()
	}
	p.readers = nil
	p.rdTimer.Stop()
}

// --- deadlines ---

// SetDeadline implements net.PacketConn.
func (p *PacketConn) SetDeadline(t time.Time) error {
	var err error
	p.d.do(func() {
		if p.closed {
			err = p.opErr("set", net.ErrClosed)
			return
		}
		p.setReadDeadlineCore(t)
		p.setWriteDeadlineCore(t)
	})
	return err
}

// SetReadDeadline implements net.PacketConn.
func (p *PacketConn) SetReadDeadline(t time.Time) error {
	var err error
	p.d.do(func() {
		if p.closed {
			err = p.opErr("set", net.ErrClosed)
			return
		}
		p.setReadDeadlineCore(t)
	})
	return err
}

// SetWriteDeadline implements net.PacketConn.
func (p *PacketConn) SetWriteDeadline(t time.Time) error {
	var err error
	p.d.do(func() {
		if p.closed {
			err = p.opErr("set", net.ErrClosed)
			return
		}
		p.setWriteDeadlineCore(t)
	})
	return err
}

func (p *PacketConn) setReadDeadlineCore(t time.Time) {
	if t.IsZero() {
		p.rdHas = false
		p.rdTimer.Stop()
		return
	}
	vt := vtimeOf(t)
	p.rdHas, p.rdDeadline = true, vt
	now := p.d.sched.Now()
	if !vt.After(now) {
		p.rdTimer.Stop()
		p.expireReaders()
		return
	}
	if p.rdTimer == nil {
		// Built on first use: a fleet opens a facade socket per node.
		p.rdTimer = vtime.NewTimer(p.onReadDeadline)
	}
	p.rdTimer.Reset(p.d.sched, vt.Sub(now))
}

func (p *PacketConn) setWriteDeadlineCore(t time.Time) {
	if t.IsZero() {
		p.wrHas = false
		return
	}
	// Writes never park, so no timer: the deadline is checked at each
	// send.
	p.wrHas, p.wrDeadline = true, vtimeOf(t)
}

func (p *PacketConn) onReadDeadline() {
	if p.rdHas && !p.rdDeadline.After(p.d.sched.Now()) {
		p.expireReaders()
	}
}

func (p *PacketConn) expireReaders() {
	for _, w := range p.readers {
		w.err = p.opErr("read", errTimeout)
		close(w.done)
		p.d.noteActivity()
	}
	p.readers = nil
}
