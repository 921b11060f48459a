package tcplite

import (
	"errors"
	"fmt"
	"net"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/vtime"
)

// ErrConnTimeout is the sentinel delivered (wrapped) through Conn.OnError
// when a connection exhausts its retransmission budget: MaxRetries
// consecutive RTOs without a single acknowledgement. Match it with
// errors.Is.
var ErrConnTimeout = errors.New("connection timed out")

// ErrClosed is the stable sentinel for operations on a connection that
// was closed locally. It wraps net.ErrClosed, so transport consumers
// (the sock facade) satisfy the standard library's contract with a plain
// errors.Is(err, net.ErrClosed).
var ErrClosed = fmt.Errorf("tcplite: %w", net.ErrClosed)

// State is a connection state (simplified TCP state machine).
type State int

// Connection states.
const (
	StateSynSent State = iota
	StateSynReceived
	StateEstablished
	StateFinWait   // we closed, awaiting peer FIN/ACK
	StateCloseWait // peer closed, we may still send
	StateLastAck   // we closed after peer; awaiting final ACK
	StateClosed
	// StateClosing is the simultaneous-close state (RFC 793 CLOSING):
	// our FIN is in flight and the peer's FIN already arrived; we await
	// the ack of ours before lingering in StateTimeWait.
	StateClosing
	// StateTimeWait lingers after both FINs are exchanged so a
	// retransmitted peer FIN (our ACK was lost) is re-acknowledged
	// instead of answered with a RST. The connection tears down
	// TimeWaitLinger later.
	StateTimeWait
)

// TimeWaitLinger is how long a connection stays in StateTimeWait before
// releasing its 4-tuple — long enough to cover the peer's first FIN
// retransmissions (its RTO starts at initialRTO and backs off).
const TimeWaitLinger = vtime.Duration(1e9)

func (s State) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateSynReceived:
		return "syn-received"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateCloseWait:
		return "close-wait"
	case StateLastAck:
		return "last-ack"
	case StateClosed:
		return "closed"
	case StateClosing:
		return "closing"
	case StateTimeWait:
		return "time-wait"
	default:
		return "state(?)"
	}
}

// unacked is one segment awaiting acknowledgement.
type unacked struct {
	seq     uint32
	payload []byte
	fin     bool
	syn     bool
}

// Conn is one reliable connection. All callbacks run on the simulation's
// event loop; do not block in them.
type Conn struct {
	ep    *Endpoint
	key   connKey
	state State

	// Send side.
	sndUna    uint32 // oldest unacknowledged
	sndNxt    uint32 // next sequence to send
	sendBuf   []byte // not yet segmented
	inflight  []unacked
	finQueued bool
	finSent   bool
	rto       vtime.Duration
	rtoTimer  *vtime.Timer
	retries   int
	dupAcks   int

	// RTT estimation (RFC 6298 style: SRTT/RTTVAR with Karn's rule —
	// samples only from segments never retransmitted).
	srtt                    vtime.Duration
	rttvar                  vtime.Duration
	hasRTT                  bool
	timedSeq                uint32     // sequence whose ACK will complete the sample
	timedAt                 vtime.Time // when it was sent
	timing                  bool
	sawRetransmitSinceTimed bool

	// Receive side.
	rcvNxt uint32
	ooo    map[uint32][]byte // out-of-order segments by seq

	// Callbacks.
	OnEstablished func()
	OnData        func([]byte)
	OnClose       func()      // orderly close by the peer (EOF)
	OnError       func(error) // reset or timeout; connection is dead
	// OnDrain fires whenever an acknowledgement frees send-side space
	// (sndUna advanced). Flow-controlled writers (the sock facade's
	// bounded write buffer) use it to resume blocked writes.
	OnDrain func()

	// BytesIn/BytesOut count delivered payload.
	BytesIn, BytesOut uint64
}

func newConn(ep *Endpoint, key connKey, passive bool) *Conn {
	c := &Conn{
		ep:    ep,
		key:   key,
		state: StateSynSent,
		rto:   initialRTO,
		ooo:   make(map[uint32][]byte),
	}
	if passive {
		c.state = StateSynReceived
	}
	isn := ep.nextISN()
	c.sndUna, c.sndNxt = isn, isn
	return c
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// LocalAddr returns the endpoint identifier chosen at setup.
func (c *Conn) LocalAddr() ipv4.Addr { return c.key.localAddr }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() ipv4.Addr { return c.key.remoteAddr }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// RemotePort returns the peer port.
func (c *Conn) RemotePort() uint16 { return c.key.remotePort }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.state == StateEstablished || c.state == StateCloseWait }

// Write queues data for reliable delivery. Writing on a closed or
// closing connection returns an error matching both ErrClosed and
// net.ErrClosed under errors.Is.
func (c *Conn) Write(data []byte) error {
	switch c.state {
	case StateClosed, StateFinWait, StateLastAck, StateClosing, StateTimeWait:
		return fmt.Errorf("write on %v connection: %w", c.state, ErrClosed)
	}
	if c.finQueued {
		return fmt.Errorf("write after close: %w", ErrClosed)
	}
	c.sendBuf = append(c.sendBuf, data...)
	c.pump()
	return nil
}

// PendingOut reports the payload bytes queued or in flight — the send
// backlog a flow-controlled writer bounds (window caps segments, so the
// inflight scan is at most window+1 entries).
func (c *Conn) PendingOut() int {
	n := len(c.sendBuf)
	for _, u := range c.inflight {
		n += len(u.payload)
	}
	return n
}

// Close initiates an orderly shutdown after queued data drains.
func (c *Conn) Close() {
	if c.state == StateClosed || c.finQueued {
		return
	}
	c.finQueued = true
	c.pump()
}

// Abort sends a reset and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagRST | flagACK})
	c.teardown(nil)
}

func (c *Conn) sendSYN() {
	c.inflight = append(c.inflight, unacked{seq: c.sndNxt, syn: true})
	c.sendSeg(segment{seq: c.sndNxt, flags: flagSYN})
	c.sndNxt++
	c.armRTO()
}

// pump moves queued data into flight, respecting MSS and window.
func (c *Conn) pump() {
	if c.state != StateEstablished && c.state != StateCloseWait && c.state != StateSynSent && c.state != StateSynReceived {
		return
	}
	if c.state == StateSynSent || c.state == StateSynReceived {
		return // data waits for the handshake
	}
	for len(c.sendBuf) > 0 && len(c.inflight) < window {
		n := mss
		if n > len(c.sendBuf) {
			n = len(c.sendBuf)
		}
		payload := append([]byte(nil), c.sendBuf[:n]...)
		c.sendBuf = c.sendBuf[n:]
		c.inflight = append(c.inflight, unacked{seq: c.sndNxt, payload: payload})
		c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK | flagPSH, payload: payload})
		c.sndNxt += uint32(n)
		c.BytesOut += uint64(n)
		// Time one segment per flight for RTT estimation.
		if !c.timing {
			c.timing = true
			c.sawRetransmitSinceTimed = false
			c.timedSeq = c.sndNxt // sample completes when ack covers it
			c.timedAt = c.ep.host.Sched().Now()
		}
	}
	if c.finQueued && !c.finSent && len(c.sendBuf) == 0 && len(c.inflight) < window {
		c.finSent = true
		c.inflight = append(c.inflight, unacked{seq: c.sndNxt, fin: true})
		c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK | flagFIN})
		c.sndNxt++
		switch c.state {
		case StateEstablished:
			c.state = StateFinWait
		case StateCloseWait:
			c.state = StateLastAck
		}
	}
	if len(c.inflight) > 0 && !c.rtoTimer.Pending() {
		// Arm the retransmission timer only when idle: re-arming on
		// every send would let a steady writer postpone retransmission
		// indefinitely.
		c.armRTO()
	}
}

func (c *Conn) sendSeg(seg segment) {
	seg.srcPort = c.key.localPort
	seg.dstPort = c.key.remotePort
	seg.window = window
	c.ep.sendRaw(c.key.localAddr, c.key.remoteAddr, seg)
}

func (c *Conn) armRTO() {
	if c.rtoTimer == nil {
		// The connection's one retransmit Timer, built on first use and
		// re-armed via Reset ever after.
		c.rtoTimer = vtime.NewTimer(c.onRTO)
	}
	c.rtoTimer.Reset(c.ep.host.Sched(), c.rto)
}

func (c *Conn) stopRTO() {
	c.rtoTimer.Stop()
}

// onRTO retransmits the oldest unacknowledged segment with exponential
// backoff — and reports the retransmission to the feedback listener,
// implementing the IP-interface addition of Section 7.1.2.
func (c *Conn) onRTO() {
	if c.state == StateClosed || len(c.inflight) == 0 {
		return
	}
	c.retries++
	if c.retries > c.ep.MaxRetries {
		c.ep.Stats.ConnsFailed++
		c.teardown(fmt.Errorf("tcplite: connection to %s (state %v): %w", c.key.remoteAddr, c.state, ErrConnTimeout))
		return
	}
	c.ep.Stats.Retransmissions++
	c.sawRetransmitSinceTimed = true
	if c.ep.Feedback != nil {
		c.ep.Feedback.Retransmission(c.key.remoteAddr)
	}
	c.retransmitFirst()
	c.rto *= 2
	if max := vtime.Duration(10e9); c.rto > max {
		c.rto = max
	}
	c.armRTO()
}

func (c *Conn) retransmitFirst() {
	u := c.inflight[0]
	switch {
	case u.syn:
		flags := uint8(flagSYN)
		if c.state == StateSynReceived {
			flags |= flagACK
		}
		seg := segment{seq: u.seq, flags: flags}
		if flags&flagACK != 0 {
			seg.ack = c.rcvNxt
		}
		c.sendSeg(seg)
	case u.fin:
		c.sendSeg(segment{seq: u.seq, ack: c.rcvNxt, flags: flagACK | flagFIN})
	default:
		c.sendSeg(segment{seq: u.seq, ack: c.rcvNxt, flags: flagACK | flagPSH, payload: u.payload})
	}
}

// handle processes one inbound segment.
func (c *Conn) handle(seg segment) {
	if seg.has(flagRST) {
		c.ep.Stats.Resets++
		c.teardown(fmt.Errorf("tcplite: connection reset by %s", c.key.remoteAddr))
		return
	}
	if c.state == StateTimeWait {
		// Only a retransmitted FIN warrants a response; everything else
		// is a stale duplicate.
		if seg.has(flagFIN) {
			c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK})
		}
		return
	}
	switch c.state {
	case StateSynSent:
		if seg.has(flagSYN) && seg.has(flagACK) && seg.ack == c.sndNxt {
			c.rcvNxt = seg.seq + 1
			c.ackInflight(seg.ack)
			c.state = StateEstablished
			c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK})
			c.reportProgress()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			c.pump()
		}
		return
	case StateSynReceived:
		if seg.has(flagSYN) && !seg.has(flagACK) {
			// The opening SYN (or a retransmission of it).
			c.rcvNxt = seg.seq + 1
			if len(c.inflight) == 0 {
				c.inflight = append(c.inflight, unacked{seq: c.sndNxt, syn: true})
				c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagSYN | flagACK})
				c.sndNxt++
				c.armRTO()
			} else {
				c.retransmitFirst() // duplicate SYN: re-answer
			}
			return
		}
		if seg.has(flagACK) && seg.ack == c.sndNxt {
			c.ackInflight(seg.ack)
			c.state = StateEstablished
			c.reportProgress()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			c.pump()
			// fall through: the ACK may carry data
		}
	}

	// Established-and-later processing.
	if seg.has(flagACK) {
		c.processAck(seg.ack)
	}
	if len(seg.payload) > 0 {
		c.processData(seg)
	}
	// The FIN occupies the sequence slot after any payload the segment
	// carries: checking seg.seq alone would miss a FIN piggybacked on
	// data (processData just advanced rcvNxt past it).
	finSeq := seg.seq + uint32(len(seg.payload))
	switch {
	case seg.has(flagFIN) && finSeq == c.rcvNxt:
		c.rcvNxt++
		c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK})
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
			if c.OnClose != nil {
				c.OnClose()
			}
		case StateFinWait:
			if c.OnClose != nil {
				c.OnClose()
			}
			if len(c.inflight) == 0 {
				// Our FIN is already acked (FIN-WAIT-2): linger to
				// re-ACK a retransmitted peer FIN.
				c.enterTimeWait()
			} else {
				// Simultaneous close: the peer FINed before acking
				// ours. Tearing down here (the old behavior) would
				// abandon our in-flight FIN and answer its ack — and
				// the peer's FIN retransmissions — with RSTs.
				c.state = StateClosing
			}
		}
	case seg.has(flagFIN) && len(seg.payload) == 0 && seqLT(seg.seq, c.rcvNxt):
		// A retransmitted FIN we already processed: our ACK was lost.
		// Re-ACK instead of staying silent (a dup FIN carrying payload
		// is re-ACKed by processData's old-data path).
		c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK})
	}
}

// enterTimeWait parks the connection until TimeWaitLinger elapses. The
// 4-tuple stays claimed so late peer segments are answered by handle
// (which re-ACKs duplicate FINs) rather than by the endpoint's RST path.
func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.stopRTO()
	c.ep.host.Sched().After(TimeWaitLinger, func() {
		if c.state == StateTimeWait {
			c.teardown(nil)
		}
	})
}

func (c *Conn) processAck(ack uint32) {
	if seqLE(ack, c.sndUna) {
		if ack == c.sndUna && len(c.inflight) > 0 {
			c.dupAcks++
			if c.dupAcks == 3 {
				// Fast retransmit.
				c.ep.Stats.FastRetransmits++
				if c.ep.Feedback != nil {
					c.ep.Feedback.Retransmission(c.key.remoteAddr)
				}
				c.retransmitFirst()
			}
		}
		return
	}
	c.dupAcks = 0
	c.retries = 0
	// RTT sample (Karn's rule: discard if anything was retransmitted
	// while the timed segment was in flight).
	if c.timing && seqLE(c.timedSeq, ack) {
		if !c.sawRetransmitSinceTimed {
			c.updateRTT(c.ep.host.Sched().Now().Sub(c.timedAt))
		}
		c.timing = false
	}
	c.rto = c.currentRTO()
	c.ackInflight(ack)
	c.reportProgress()
	if len(c.inflight) == 0 {
		c.stopRTO()
		switch c.state {
		case StateLastAck:
			c.teardown(nil)
			return
		case StateClosing:
			// Simultaneous close: our FIN is now acked too.
			c.enterTimeWait()
			return
		}
		// FinWait with everything acked: wait for the peer's FIN.
	} else {
		c.armRTO()
	}
	c.pump()
	if c.OnDrain != nil {
		c.OnDrain()
	}
}

func (c *Conn) ackInflight(ack uint32) {
	i := 0
	for ; i < len(c.inflight); i++ {
		u := c.inflight[i]
		end := u.seq + uint32(len(u.payload))
		if u.syn || u.fin {
			end = u.seq + 1
		}
		if seqLE(end, ack) {
			continue
		}
		break
	}
	c.inflight = c.inflight[i:]
	if seqLT(c.sndUna, ack) {
		c.sndUna = ack
	}
}

func (c *Conn) processData(seg segment) {
	if seqLT(seg.seq, c.rcvNxt) {
		// Old or partially-old data: ack what we have.
		c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK})
		return
	}
	if seg.seq != c.rcvNxt {
		// Out of order: stash and send a duplicate ACK.
		if _, dup := c.ooo[seg.seq]; !dup {
			c.ooo[seg.seq] = append([]byte(nil), seg.payload...)
		}
		c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK})
		return
	}
	c.deliver(seg.payload)
	// Drain contiguous out-of-order data.
	for {
		p, ok := c.ooo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.ooo, c.rcvNxt)
		c.deliver(p)
	}
	c.sendSeg(segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK})
	c.reportProgress()
}

func (c *Conn) deliver(p []byte) {
	c.rcvNxt += uint32(len(p))
	c.BytesIn += uint64(len(p))
	if c.OnData != nil {
		c.OnData(p)
	}
}

func (c *Conn) reportProgress() {
	if c.ep.Feedback != nil {
		c.ep.Feedback.Progress(c.key.remoteAddr)
	}
}

func (c *Conn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.stopRTO()
	delete(c.ep.conns, c.key)
	if err != nil && c.OnError != nil {
		c.OnError(err)
	}
}

// updateRTT folds one round-trip sample into the smoothed estimators
// (RFC 6298: alpha=1/8, beta=1/4).
func (c *Conn) updateRTT(sample vtime.Duration) {
	if sample <= 0 {
		return
	}
	if !c.hasRTT {
		c.srtt = sample
		c.rttvar = sample / 2
		c.hasRTT = true
		return
	}
	diff := c.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + sample) / 8
}

// currentRTO derives the retransmission timeout from the estimators,
// floored at a granularity tick and falling back to the endpoint default
// before any sample exists.
func (c *Conn) currentRTO() vtime.Duration {
	if !c.hasRTT {
		return initialRTO
	}
	rto := c.srtt + 4*c.rttvar
	if min := vtime.Duration(50e6); rto < min { // 50ms floor
		rto = min
	}
	return rto
}

// SRTT exposes the smoothed round-trip estimate (zero before the first
// sample); experiments read it to compare paths.
func (c *Conn) SRTT() vtime.Duration { return c.srtt }

// seqLT reports a < b in sequence space (RFC 1982 style).
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE reports a <= b in sequence space.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }
