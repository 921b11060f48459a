package tcplite_test

import (
	"bytes"
	"testing"

	"mob4x4/internal/faults"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/tcplite"
	"mob4x4/internal/vtime"
)

const ms = vtime.Duration(1e6)

// pair builds two hosts on LANs joined by a router, with the given loss
// rate on the client side, and returns (client host, server host).
func pair(t testing.TB, loss float64) (*inet.Network, *stack.Host, *stack.Host) {
	t.Helper()
	n := inet.New(7)
	a := n.AddLAN("a", "10.1.0.0/24", netsim.SegmentOpts{Latency: 2 * ms})
	if loss > 0 {
		faults.ImpairLink(n.Sim, a.Seg, faults.LinkFaultOpts{GoodLoss: loss})
	}
	b := n.AddLAN("b", "10.2.0.0/24", netsim.SegmentOpts{Latency: 2 * ms})
	r := n.AddRouter("r")
	n.AttachRouter(r, a)
	n.AttachRouter(r, b)
	client := n.AddHost("client", a)
	server := n.AddHost("server", b)
	n.ComputeRoutes()
	return n, client, server
}

func TestHandshakeAndEcho(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)

	var serverGot bytes.Buffer
	if _, err := sep.Listen(7, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) {
			serverGot.Write(p)
			_ = c.Write(p) // echo
		}
	}); err != nil {
		t.Fatal(err)
	}

	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var clientGot bytes.Buffer
	established := false
	conn.OnEstablished = func() {
		established = true
		_ = conn.Write([]byte("hello mobile world"))
	}
	conn.OnData = func(p []byte) { clientGot.Write(p) }

	n.RunFor(2e9)

	if !established {
		t.Fatal("handshake did not complete")
	}
	if got := serverGot.String(); got != "hello mobile world" {
		t.Errorf("server got %q", got)
	}
	if got := clientGot.String(); got != "hello mobile world" {
		t.Errorf("client echo got %q", got)
	}
}

func TestLargeTransferSegmentation(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)

	const total = 100_000
	var rx int
	if _, err := sep.Listen(9, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { rx += len(p) }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 9)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i)
	}
	conn.OnEstablished = func() { _ = conn.Write(payload) }

	n.RunFor(30e9)
	if rx != total {
		t.Fatalf("received %d bytes, want %d", rx, total)
	}
}

func TestRetransmissionUnderLoss(t *testing.T) {
	n, ch, sh := pair(t, 0.15) // 15% loss on the client LAN
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)

	const total = 20_000
	var rx int
	if _, err := sep.Listen(9, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { rx += len(p) }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 9)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() { _ = conn.Write(make([]byte, total)) }

	n.RunFor(120e9)
	if rx != total {
		t.Fatalf("received %d bytes, want %d (retransmissions=%d)", rx, total, cep.Stats.Retransmissions)
	}
	if cep.Stats.Retransmissions == 0 && cep.Stats.FastRetransmits == 0 {
		t.Error("expected some retransmissions under 15% loss")
	}
}

func TestOrderlyClose(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)

	serverClosed := false
	if _, err := sep.Listen(5, func(c *tcplite.Conn) {
		c.OnClose = func() {
			serverClosed = true
			c.Close() // close our side too
		}
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	clientClosed := false
	conn.OnEstablished = func() { conn.Close() }
	conn.OnClose = func() { clientClosed = true }

	n.RunFor(5e9)
	if !serverClosed {
		t.Error("server never saw EOF")
	}
	if !clientClosed {
		t.Error("client never saw peer close")
	}
	if got := cep.ConnCount(); got != 0 {
		t.Errorf("client still tracks %d connections", got)
	}
	if got := sep.ConnCount(); got != 0 {
		t.Errorf("server still tracks %d connections", got)
	}
}

func TestConnectionRefusedRST(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	tcplite.New(sh) // endpoint installed but nothing listening

	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 81)
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	conn.OnError = func(e error) { gotErr = e }
	n.RunFor(5e9)
	if gotErr == nil {
		t.Fatal("expected connection reset")
	}
}

func TestTimeoutWhenPeerUnreachable(t *testing.T) {
	n, ch, sh := pair(t, 0)
	cep := tcplite.New(ch)
	tcplite.New(sh)

	// Dial an address that routes nowhere useful (no host holds it).
	conn, err := cep.Dial(ipv4.Zero, ipv4.MustParseAddr("10.2.0.200"), 7)
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	conn.OnError = func(e error) { gotErr = e }
	n.RunFor(600e9)
	if gotErr == nil {
		t.Fatal("expected timeout error")
	}
	if cep.Stats.ConnsFailed != 1 {
		t.Errorf("ConnsFailed = %d, want 1", cep.Stats.ConnsFailed)
	}
}

// feedbackRecorder implements tcplite.FeedbackListener.
type feedbackRecorder struct {
	retrans  map[ipv4.Addr]int
	progress map[ipv4.Addr]int
}

func (f *feedbackRecorder) Retransmission(r ipv4.Addr) { f.retrans[r]++ }
func (f *feedbackRecorder) Progress(r ipv4.Addr)       { f.progress[r]++ }

func TestFeedbackSignals(t *testing.T) {
	n, ch, sh := pair(t, 0.2)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	fb := &feedbackRecorder{retrans: map[ipv4.Addr]int{}, progress: map[ipv4.Addr]int{}}
	cep.Feedback = fb

	if _, err := sep.Listen(7, func(c *tcplite.Conn) {}); err != nil {
		t.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() { _ = conn.Write(make([]byte, 50_000)) }
	n.RunFor(120e9)

	server := sh.FirstAddr()
	if fb.progress[server] == 0 {
		t.Error("no progress signals delivered")
	}
	if fb.retrans[server] == 0 {
		t.Error("no retransmission signals under 20% loss")
	}
}

// BenchmarkTransferThroughput measures end-to-end reliable transfer over
// the simulated network: segmentation, checksums, cumulative ACKs,
// virtual-time pacing.
func BenchmarkTransferThroughput(b *testing.B) {
	n, ch, sh := pair(b, 0)
	cep := tcplite.New(ch)
	sep := tcplite.New(sh)
	var rx int
	if _, err := sep.Listen(9, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { rx += len(p) }
	}); err != nil {
		b.Fatal(err)
	}
	conn, err := cep.Dial(ipv4.Zero, sh.FirstAddr(), 9)
	if err != nil {
		b.Fatal(err)
	}
	established := false
	conn.OnEstablished = func() { established = true }
	n.RunFor(2e9)
	if !established {
		b.Fatal("no connection")
	}
	const chunk = 64 * 1024
	payload := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
		n.RunFor(60e9)
	}
	if rx == 0 {
		b.Fatal("nothing received")
	}
}
