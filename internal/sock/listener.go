package sock

import (
	"net"

	"mob4x4/internal/tcplite"
)

// acceptWaiter is one parked Accept call.
type acceptWaiter struct {
	c    *Conn
	err  error
	done chan struct{}
}

// Listener adapts a tcplite listener to net.Listener. Facade callbacks
// are installed on each inbound connection at SYN time so no transport
// event can be missed; connections queue for Accept once established.
type Listener struct {
	d    *Driver
	addr Addr
	tl   *tcplite.Listener

	backlog []*Conn
	waiters []*acceptWaiter
	closed  bool
}

// Addr returns the listening address. A zero IP means the listener
// accepts connections addressed to any of the host's addresses (the
// §7.1.1 "let the mobility policy choose" bind); a specific IP filters
// — connections reaching the host under another address are refused,
// the way a bound socket's demux filter would.
func (l *Listener) Addr() net.Addr { return l.addr }

func (l *Listener) opErr(op string, err error) error {
	return opError(op, "tcp", l.addr, nil, err)
}

// onSYN runs on the event loop when tcplite creates a passive
// connection (SYN received). The facade conn wraps it immediately so
// the establishment callback is never missed.
func (l *Listener) onSYN(tc *tcplite.Conn) {
	if l.closed {
		tc.Abort()
		return
	}
	if !l.addr.IP.IsZero() && tc.LocalAddr() != l.addr.IP {
		// Bound listener: refuse connections addressed elsewhere.
		tc.Abort()
		return
	}
	c := newConn(l.d, tc, "tcp")
	c.tc.OnEstablished = func() {
		c.onEstablished()
		l.deliver(c)
	}
}

// deliver hands an established connection to Accept. Event-loop
// context.
func (l *Listener) deliver(c *Conn) {
	if l.closed {
		c.closeCore()
		return
	}
	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		w.c = c
		close(w.done)
		l.d.noteActivity()
		return
	}
	l.backlog = append(l.backlog, c)
}

// Accept implements net.Listener: blocks until a connection completes
// its handshake or the listener is closed.
func (l *Listener) Accept() (net.Conn, error) {
	var (
		c   *Conn
		err error
		w   *acceptWaiter
	)
	l.d.do(func() {
		if l.closed {
			err = l.opErr("accept", net.ErrClosed)
			return
		}
		if len(l.backlog) > 0 {
			c = l.backlog[0]
			l.backlog = l.backlog[1:]
			return
		}
		w = &acceptWaiter{done: make(chan struct{})}
		l.waiters = append(l.waiters, w)
	})
	if w == nil {
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	<-w.done
	if w.err != nil {
		return nil, w.err
	}
	return w.c, nil
}

// Close implements net.Listener: stops accepting, releases blocked
// Accept calls with net.ErrClosed and closes queued-but-unaccepted
// connections.
func (l *Listener) Close() error {
	l.d.do(l.closeCore)
	return nil
}

// closeCore runs on the event loop.
func (l *Listener) closeCore() {
	if l.closed {
		return
	}
	l.closed = true
	l.tl.Close()
	for _, w := range l.waiters {
		w.err = l.opErr("accept", net.ErrClosed)
		close(w.done)
		l.d.noteActivity()
	}
	l.waiters = nil
	for _, c := range l.backlog {
		c.closeCore()
	}
	l.backlog = nil
}
