package tcplite_test

import (
	"testing"

	"mob4x4/internal/faults"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/tcplite"
)

func TestWriteAfterCloseRejected(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	if _, err := sep.Listen(7, func(c *tcplite.Conn) {}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() {
		conn.Close()
		if err := conn.Write([]byte("late")); err == nil {
			t.Error("write after Close accepted")
		}
	}
	n.RunFor(5e9)
}

func TestAbortSendsRST(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	var serverConn *tcplite.Conn
	var serverErr error
	if _, err := sep.Listen(7, func(c *tcplite.Conn) {
		serverConn = c
		c.OnError = func(e error) { serverErr = e }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() { conn.Abort() }
	n.RunFor(5e9)
	if conn.State() != tcplite.StateClosed {
		t.Error("aborting side not closed")
	}
	if serverConn == nil {
		t.Fatal("server never accepted")
	}
	if serverErr == nil {
		t.Error("peer did not observe the reset")
	}
	if cep.ConnCount() != 0 || sep.ConnCount() != 0 {
		t.Error("connections leaked after abort")
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	var rx int
	if _, err := sep.Listen(7, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { rx += len(p) }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// 20 full 960-byte segments against the fixed 8-segment window.
	const total = 20 * 960
	conn.OnEstablished = func() { _ = conn.Write(make([]byte, total)) }
	n.RunFor(60e9)
	if rx != total {
		t.Fatalf("rx = %d", rx)
	}
	// With window 8 the sender can never have had more than 8 unacked —
	// indirectly verified by the transfer completing correctly; directly,
	// the flight must be ACK-paced, not a burst-then-retransmit.
	if cep.Stats.Retransmissions != 0 {
		t.Errorf("retransmissions = %d on a lossless link", cep.Stats.Retransmissions)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	const each = 30_000
	var serverRx, clientRx int
	if _, err := sep.Listen(7, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { serverRx += len(p) }
		_ = c.Write(make([]byte, each)) // server pushes immediately
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnData = func(p []byte) { clientRx += len(p) }
	conn.OnEstablished = func() { _ = conn.Write(make([]byte, each)) }
	n.RunFor(60e9)
	if serverRx != each || clientRx != each {
		t.Errorf("rx: server=%d client=%d, want %d each", serverRx, clientRx, each)
	}
}

func TestSimultaneousConnectionsSharePort(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	accepted := 0
	if _, err := sep.Listen(7, func(c *tcplite.Conn) {
		accepted++
		c.OnData = func(p []byte) { _ = c.Write(p) }
	}); err != nil {
		t.Fatal(err)
	}
	var echoes int
	for i := 0; i < 5; i++ {
		conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
		if err != nil {
			t.Fatal(err)
		}
		c := conn
		c.OnEstablished = func() { _ = c.Write([]byte("x")) }
		c.OnData = func(p []byte) { echoes++ }
	}
	n.RunFor(10e9)
	if accepted != 5 {
		t.Errorf("accepted = %d", accepted)
	}
	if echoes != 5 {
		t.Errorf("echoes = %d", echoes)
	}
}

func TestListenerCloseStopsAccepting(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	l, err := sep.Listen(7, func(c *tcplite.Conn) { t.Error("accepted after close") })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var refused error
	conn.OnError = func(e error) { refused = e }
	n.RunFor(5e9)
	if refused == nil {
		t.Error("dial to closed listener not refused")
	}
	if _, err := sep.Listen(7, nil); err != nil {
		t.Errorf("port not reusable after listener close: %v", err)
	}
}

func TestDuplicateListenRejected(t *testing.T) {
	_, _, sh := pair(t, 0)
	sep := tcplite.New(sh)
	if _, err := sep.Listen(7, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sep.Listen(7, nil); err == nil {
		t.Error("duplicate listen accepted")
	}
}

func TestDialExplicitLocalAddress(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	other := ipv4.MustParseAddr("36.1.1.3")
	ch.Claim(other, nil)
	var peerSaw ipv4.Addr
	if _, err := sep.Listen(7, func(c *tcplite.Conn) {
		peerSaw = c.RemoteAddr()
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(other, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if conn.LocalAddr() != other {
		t.Errorf("local addr = %s", conn.LocalAddr())
	}
	n.RunFor(5e9)
	// The SYN carried the explicit source; the server keyed the
	// connection to it (even though replies will not route back in this
	// plain topology — the endpoint identity is the point here).
	if peerSaw != other {
		t.Errorf("peer saw %s, want %s", peerSaw, other)
	}
}

func TestRTTEstimationConvergesAndAdaptsRTO(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	if _, err := sep.Listen(7, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { _ = c.Write(p) }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() { _ = conn.Write([]byte("sample")) }
	echoes := 0
	conn.OnData = func(p []byte) {
		echoes++
		if echoes < 10 {
			_ = conn.Write([]byte("sample"))
		}
	}
	n.RunFor(30e9)
	if echoes < 10 {
		t.Fatalf("echoes = %d", echoes)
	}
	srtt := conn.SRTT()
	if srtt == 0 {
		t.Fatal("no RTT samples collected")
	}
	// Path: 2ms + 2ms each way = 8ms RTT (warm ARP); the estimate must
	// land in that neighbourhood.
	if srtt < 4e6 || srtt > 20e6 {
		t.Errorf("SRTT = %v, want ~8ms", srtt)
	}
}

func TestTransferUnderReordering(t *testing.T) {
	// A jittery path reorders segments aggressively; the out-of-order
	// buffer must reassemble the stream byte-exactly.
	n := inet.New(13)
	a := n.AddLAN("a", "10.1.0.0/24", netsim.SegmentOpts{Latency: 1e6})
	faults.ImpairLink(n.Sim, a.Seg, faults.LinkFaultOpts{ReorderRate: 1, ReorderMax: 30e6})
	b := n.AddLAN("b", "10.2.0.0/24", netsim.SegmentOpts{Latency: 1e6})
	r := n.AddRouter("r")
	n.AttachRouter(r, a)
	n.AttachRouter(r, b)
	client := n.AddHost("client", a)
	server := n.AddHost("server", b)
	n.ComputeRoutes()

	cep := tcplite.New(client)
	sep := tcplite.New(server)
	const total = 50_000
	var got []byte
	if _, err := sep.Listen(9, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { got = append(got, p...) }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, server.FirstAddr(), 9)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	conn.OnEstablished = func() { _ = conn.Write(payload) }
	n.RunFor(300e9)

	if len(got) != total {
		t.Fatalf("received %d/%d bytes", len(got), total)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d corrupted: %d != %d", i, got[i], payload[i])
		}
	}
}
