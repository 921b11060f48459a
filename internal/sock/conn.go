package sock

import (
	"io"
	"net"
	"time"

	"mob4x4/internal/tcplite"
	"mob4x4/internal/vtime"
)

// writeBufMax bounds the facade's send backlog per connection: Write
// blocks once this many bytes are queued or in flight below it, giving
// the blocking layer back-pressure instead of unbounded buffering.
const writeBufMax = 64 << 10

// readWaiter is one parked Read call.
type readWaiter struct {
	p    []byte
	n    int
	err  error
	done chan struct{}
}

// writeWaiter is one parked Write call; off tracks how much of p the
// flow-control pump has already pushed into tcplite.
type writeWaiter struct {
	p    []byte
	off  int
	err  error
	done chan struct{}
}

// Conn adapts one tcplite connection to net.Conn. All unexported state
// below the driver pointer is sim-side: touched only on the event loop,
// via Driver.do from the blocking methods.
type Conn struct {
	d  *Driver
	tc *tcplite.Conn

	local, remote Addr

	buf     []byte // receive buffer (bufOff..len readable)
	bufOff  int
	eof     bool  // peer sent FIN (delivered after buffered data)
	connErr error // reset / retransmission-timeout; sticky
	closed  bool  // local Close

	readers []*readWaiter
	writers []*writeWaiter

	established bool
	estWaiters  []chan error // Dial callers awaiting the handshake

	rdDeadline vtime.Time
	rdHas      bool
	rdTimer    *vtime.Timer
	wrDeadline vtime.Time
	wrHas      bool
	wrTimer    *vtime.Timer
}

// newConn wraps tc and installs its callbacks. Runs on the event loop.
func newConn(d *Driver, tc *tcplite.Conn, proto string) *Conn {
	c := &Conn{
		d:      d,
		tc:     tc,
		local:  Addr{IP: tc.LocalAddr(), Port: tc.LocalPort(), Proto: proto},
		remote: Addr{IP: tc.RemoteAddr(), Port: tc.RemotePort(), Proto: proto},
	}
	c.rdTimer = vtime.NewTimer(c.onReadDeadline)
	c.wrTimer = vtime.NewTimer(c.onWriteDeadline)
	c.established = tc.Established()
	tc.OnEstablished = c.onEstablished
	tc.OnData = c.onData
	tc.OnClose = c.onPeerClose
	tc.OnError = c.onConnError
	tc.OnDrain = c.onDrain
	return c
}

// LocalAddr returns the connection's endpoint identifier — the address
// the mobility policy chose at setup (home vs care-of), which is
// exactly what determines whether the conversation survives movement.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

func (c *Conn) opErr(op string, err error) error {
	return opError(op, c.local.Proto, c.local, c.remote, err)
}

// --- callbacks (event loop) ---

func (c *Conn) onEstablished() {
	c.established = true
	for _, ch := range c.estWaiters {
		ch <- nil
		c.notifyWake()
	}
	c.estWaiters = nil
}

func (c *Conn) onData(p []byte) {
	// tcplite hands us its own delivery slice; copy so the facade owns
	// its buffer regardless of what the transport does next.
	c.buf = append(c.buf, p...)
	c.pumpReaders()
}

func (c *Conn) onPeerClose() {
	c.eof = true
	c.pumpReaders()
}

func (c *Conn) onConnError(err error) {
	if c.connErr == nil {
		c.connErr = err
	}
	for _, ch := range c.estWaiters {
		ch <- err
		c.notifyWake()
	}
	c.estWaiters = nil
	c.pumpReaders()
	c.failWriters(c.opErr("write", err))
}

func (c *Conn) onDrain() {
	c.pumpWriters()
}

// notifyWake tells the driver a blocked caller was released, so virtual
// time settles before advancing (the determinism contract).
func (c *Conn) notifyWake() { c.d.noteActivity() }

// --- read path ---

// Read implements net.Conn. Delivery order: buffered data, then EOF,
// then the connection error; a local Close or an expired read deadline
// preempts with their respective errors.
func (c *Conn) Read(p []byte) (int, error) {
	var (
		n   int
		err error
		w   *readWaiter
	)
	c.d.do(func() { n, err, w = c.startRead(p) })
	if w == nil {
		return n, err
	}
	<-w.done
	return w.n, w.err
}

// startRead runs on the event loop: satisfy immediately or park.
func (c *Conn) startRead(p []byte) (int, error, *readWaiter) {
	if c.closed {
		return 0, c.opErr("read", net.ErrClosed), nil
	}
	if n := c.readable(); n > 0 {
		return c.copyOut(p), nil, nil
	}
	if c.eof {
		return 0, io.EOF, nil
	}
	if c.connErr != nil {
		return 0, c.opErr("read", c.connErr), nil
	}
	if c.rdHas && !c.rdDeadline.After(c.d.sched.Now()) {
		return 0, c.opErr("read", errTimeout), nil
	}
	if len(p) == 0 {
		return 0, nil, nil
	}
	w := &readWaiter{p: p, done: make(chan struct{})}
	c.readers = append(c.readers, w)
	return 0, nil, w
}

func (c *Conn) readable() int { return len(c.buf) - c.bufOff }

func (c *Conn) copyOut(p []byte) int {
	n := copy(p, c.buf[c.bufOff:])
	c.bufOff += n
	if c.bufOff == len(c.buf) {
		c.buf = c.buf[:0]
		c.bufOff = 0
	}
	return n
}

// pumpReaders releases parked Read calls in FIFO order as data, EOF or
// errors become deliverable.
func (c *Conn) pumpReaders() {
	for len(c.readers) > 0 {
		w := c.readers[0]
		switch {
		case c.readable() > 0:
			w.n = c.copyOut(w.p)
		case c.closed:
			w.err = c.opErr("read", net.ErrClosed)
		case c.eof:
			w.err = io.EOF
		case c.connErr != nil:
			w.err = c.opErr("read", c.connErr)
		default:
			return
		}
		c.readers = c.readers[1:]
		close(w.done)
		c.notifyWake()
	}
}

// --- write path ---

// Write implements net.Conn: blocks while the per-connection send
// backlog (writeBufMax) is full, returns the byte count accepted by the
// transport before any error.
func (c *Conn) Write(p []byte) (int, error) {
	var (
		n   int
		err error
		w   *writeWaiter
	)
	c.d.do(func() { n, err, w = c.startWrite(p) })
	if w == nil {
		return n, err
	}
	<-w.done
	return w.off, w.err
}

func (c *Conn) startWrite(p []byte) (int, error, *writeWaiter) {
	if c.closed {
		return 0, c.opErr("write", net.ErrClosed), nil
	}
	if c.connErr != nil {
		return 0, c.opErr("write", c.connErr), nil
	}
	if c.wrHas && !c.wrDeadline.After(c.d.sched.Now()) {
		return 0, c.opErr("write", errTimeout), nil
	}
	n, err := c.writeSome(p, 0)
	if err != nil {
		return n, err, nil
	}
	if n == len(p) {
		return n, nil, nil
	}
	w := &writeWaiter{p: p, off: n, done: make(chan struct{})}
	c.writers = append(c.writers, w)
	return 0, nil, w
}

// writeSome pushes as much of p[off:] into tcplite as the backlog
// bound allows; returns the new offset.
func (c *Conn) writeSome(p []byte, off int) (int, error) {
	for off < len(p) {
		room := writeBufMax - c.tc.PendingOut()
		if room <= 0 {
			return off, nil
		}
		chunk := len(p) - off
		if chunk > room {
			chunk = room
		}
		if err := c.tc.Write(p[off : off+chunk]); err != nil {
			return off, c.opErr("write", err)
		}
		off += chunk
	}
	return off, nil
}

// pumpWriters resumes parked Write calls as acknowledgements free
// backlog space.
func (c *Conn) pumpWriters() {
	for len(c.writers) > 0 {
		w := c.writers[0]
		off, err := c.writeSome(w.p, w.off)
		w.off = off
		if err != nil {
			w.err = err
		} else if off < len(w.p) {
			return // backlog full again
		}
		c.writers = c.writers[1:]
		close(w.done)
		c.notifyWake()
	}
}

func (c *Conn) failWriters(err error) {
	for _, w := range c.writers {
		w.err = err
		close(w.done)
		c.notifyWake()
	}
	c.writers = nil
}

// --- close ---

// Close implements net.Conn: initiates the orderly transport shutdown
// and releases every blocked Read/Write with net.ErrClosed.
func (c *Conn) Close() error {
	c.d.do(c.closeCore)
	return nil
}

// closeCore runs on the event loop.
func (c *Conn) closeCore() {
	if c.closed {
		return
	}
	c.closed = true
	err := c.opErr("close", net.ErrClosed)
	for _, ch := range c.estWaiters {
		ch <- err
		c.notifyWake()
	}
	c.estWaiters = nil
	c.pumpReaders() // releases all: closed wins
	c.failWriters(c.opErr("write", net.ErrClosed))
	c.rdTimer.Stop()
	c.wrTimer.Stop()
	c.tc.Close()
}

// --- deadlines ---

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	var err error
	c.d.do(func() {
		if c.closed {
			err = c.opErr("set", net.ErrClosed)
			return
		}
		c.setReadDeadlineCore(t)
		c.setWriteDeadlineCore(t)
	})
	return err
}

// SetReadDeadline implements net.Conn. A past deadline releases blocked
// and fails future Reads with a timeout until the deadline is changed;
// a zero deadline clears it.
func (c *Conn) SetReadDeadline(t time.Time) error {
	var err error
	c.d.do(func() {
		if c.closed {
			err = c.opErr("set", net.ErrClosed)
			return
		}
		c.setReadDeadlineCore(t)
	})
	return err
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	var err error
	c.d.do(func() {
		if c.closed {
			err = c.opErr("set", net.ErrClosed)
			return
		}
		c.setWriteDeadlineCore(t)
	})
	return err
}

func (c *Conn) setReadDeadlineCore(t time.Time) {
	if t.IsZero() {
		c.rdHas = false
		c.rdTimer.Stop()
		return
	}
	vt := vtimeOf(t)
	c.rdHas, c.rdDeadline = true, vt
	now := c.d.sched.Now()
	if !vt.After(now) {
		c.rdTimer.Stop()
		c.expireReaders()
		return
	}
	c.rdTimer.Reset(c.d.sched, vt.Sub(now))
}

func (c *Conn) setWriteDeadlineCore(t time.Time) {
	if t.IsZero() {
		c.wrHas = false
		c.wrTimer.Stop()
		return
	}
	vt := vtimeOf(t)
	c.wrHas, c.wrDeadline = true, vt
	now := c.d.sched.Now()
	if !vt.After(now) {
		c.wrTimer.Stop()
		c.expireWriters()
		return
	}
	c.wrTimer.Reset(c.d.sched, vt.Sub(now))
}

func (c *Conn) onReadDeadline() {
	if c.rdHas && !c.rdDeadline.After(c.d.sched.Now()) {
		c.expireReaders()
	}
}

func (c *Conn) onWriteDeadline() {
	if c.wrHas && !c.wrDeadline.After(c.d.sched.Now()) {
		c.expireWriters()
	}
}

func (c *Conn) expireReaders() {
	for _, w := range c.readers {
		w.err = c.opErr("read", errTimeout)
		close(w.done)
		c.notifyWake()
	}
	c.readers = nil
}

func (c *Conn) expireWriters() {
	for _, w := range c.writers {
		w.err = c.opErr("write", errTimeout)
		close(w.done)
		c.notifyWake()
	}
	c.writers = nil
}
