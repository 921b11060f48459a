package stack

import (
	"bytes"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

type udpRecv struct {
	src     ipv4.Addr
	srcPort uint16
	dst     ipv4.Addr
	payload []byte
}

func openRecorder(t testing.TB, h *Host, bind ipv4.Addr, port uint16) (*UDPSocket, *[]udpRecv) {
	t.Helper()
	var got []udpRecv
	s, err := h.OpenUDP(bind, port, func(src ipv4.Addr, sp uint16, dst ipv4.Addr, p []byte) {
		got = append(got, udpRecv{src, sp, dst, append([]byte(nil), p...)})
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, &got
}

func TestUDPSendReceive(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{Latency: 1e6})
	_, got := openRecorder(t, b, ipv4.Zero, 7)
	sa, _ := openRecorder(t, a, ipv4.Zero, 0)

	if err := sa.SendTo(b.FirstAddr(), 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sim.Sched.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d", len(*got))
	}
	r := (*got)[0]
	if r.src != a.FirstAddr() || r.srcPort != sa.Port() || !bytes.Equal(r.payload, []byte("hello")) {
		t.Errorf("got %+v", r)
	}
	if sa.Port() < 49152 {
		t.Errorf("ephemeral port %d out of range", sa.Port())
	}
}

func TestUDPPortCollision(t *testing.T) {
	_, a, _ := lanPair(t, netsim.SegmentOpts{})
	if _, err := a.OpenUDP(ipv4.Zero, 53, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenUDP(ipv4.Zero, 53, nil); err == nil {
		t.Error("duplicate bind accepted")
	}
}

func TestUDPCloseReleasesPort(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	s, got := openRecorder(t, b, ipv4.Zero, 9)
	sa, _ := openRecorder(t, a, ipv4.Zero, 0)
	s.Close()
	s.Close() // double close is fine
	_ = sa.SendTo(b.FirstAddr(), 9, []byte("x"))
	sim.Sched.Run()
	if len(*got) != 0 {
		t.Error("closed socket received")
	}
	if err := s.SendTo(b.FirstAddr(), 9, nil); err == nil {
		t.Error("send on closed socket accepted")
	}
	if _, err := b.OpenUDP(ipv4.Zero, 9, nil); err != nil {
		t.Errorf("port not released: %v", err)
	}
}

func TestUDPBindAddrFiltersDeliveries(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	other := ipv4.MustParseAddr("36.1.1.3")
	b.Claim(other, nil)
	// Socket bound specifically to the claimed (home-like) address.
	_, got := openRecorder(t, b, other, 7)
	sa, _ := openRecorder(t, a, ipv4.Zero, 0)

	// To the bound address: delivered.
	_ = sa.SendTo(other, 7, []byte("yes")) // no route: on-link? other not in prefix...
	// other is off-prefix: use link-direct.
	sim.Sched.Run()
	d := udpPayload(t, a, sa, other, 7, []byte("yes"))
	_ = a.SendIPLinkDirect(a.Ifaces()[0], b.FirstAddr(), d)
	// To b's interface address: same port, but bind filters it out.
	d2 := udpPayload(t, a, sa, b.FirstAddr(), 7, []byte("no"))
	_ = a.SendIPLinkDirect(a.Ifaces()[0], b.FirstAddr(), d2)
	sim.Sched.Run()

	if len(*got) != 1 || !bytes.Equal((*got)[0].payload, []byte("yes")) {
		t.Errorf("bind filter wrong: %+v", *got)
	}
}

// udpPayload hand-builds a UDP packet from sock's port to dst:dport.
func udpPayload(t testing.TB, a *Host, sock *UDPSocket, dst ipv4.Addr, dport uint16, body []byte) ipv4.Packet {
	t.Helper()
	d := struct {
		SrcPort, DstPort uint16
		Payload          []byte
	}{sock.Port(), dport, body}
	// Reuse the udp codec through the socket API instead: simpler to
	// marshal directly here.
	b := make([]byte, 8+len(body))
	b[0], b[1] = byte(d.SrcPort>>8), byte(d.SrcPort)
	b[2], b[3] = byte(d.DstPort>>8), byte(d.DstPort)
	b[4], b[5] = byte((8+len(body))>>8), byte(8+len(body))
	copy(b[8:], body)
	// Zero checksum (allowed).
	return ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoUDP, Src: a.FirstAddr(), Dst: dst},
		Payload: b,
	}
}

func TestUDPRebind(t *testing.T) {
	_, _, b := lanPair(t, netsim.SegmentOpts{})
	s, _ := openRecorder(t, b, ipv4.Zero, 7)
	if s.BindAddr() != ipv4.Zero {
		t.Error("initial bind addr")
	}
	s.Rebind(b.FirstAddr())
	if s.BindAddr() != b.FirstAddr() {
		t.Error("rebind failed")
	}
}

func TestSourceForDestination(t *testing.T) {
	_, a, b := lanPair(t, netsim.SegmentOpts{})
	if got := a.SourceForDestination(b.FirstAddr()); got != a.FirstAddr() {
		t.Errorf("on-link source = %s", got)
	}
	if got := a.SourceForDestination(ipv4.MustParseAddr("192.168.9.9")); !got.IsZero() {
		t.Errorf("unroutable destination yielded source %s", got)
	}
	// Claimed destination: talk to ourselves.
	claimed := ipv4.MustParseAddr("36.1.1.3")
	a.Claim(claimed, nil)
	if got := a.SourceForDestination(claimed); got != claimed {
		t.Errorf("claimed dest source = %s", got)
	}
}

func TestSourceForDestinationHonorsOverridePinnedSource(t *testing.T) {
	_, a, b := lanPair(t, netsim.SegmentOpts{})
	pinned := ipv4.MustParseAddr("36.1.1.3")
	a.RouteOverride = func(ipv4.Packet) (Route, ipv4.Addr, bool) {
		return Route{}, pinned, false // fall through to the table
	}
	if got := a.SourceForDestination(b.FirstAddr()); got != pinned {
		t.Errorf("override-pinned source ignored: %s", got)
	}
}

func TestUDPSendNoSourceFails(t *testing.T) {
	_, a, _ := lanPair(t, netsim.SegmentOpts{})
	s, _ := openRecorder(t, a, ipv4.Zero, 0)
	if err := s.SendTo(ipv4.MustParseAddr("192.168.9.9"), 7, nil); err == nil {
		t.Error("send without resolvable source accepted")
	}
}

func TestUDPBroadcastZeroSource(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	_, got := openRecorder(t, b, ipv4.Zero, 67)
	sa, _ := openRecorder(t, a, ipv4.Zero, 68)
	// DHCP-style: zero source, broadcast destination.
	if err := sa.SendToFrom(ipv4.Zero, ipv4.Broadcast, 67, []byte("discover")); err != nil {
		t.Fatal(err)
	}
	sim.Sched.Run()
	if len(*got) != 1 || (*got)[0].src != ipv4.Zero {
		t.Errorf("broadcast from zero source: %+v", *got)
	}
}

func TestUDPStats(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	sb, _ := openRecorder(t, b, ipv4.Zero, 7)
	sa, _ := openRecorder(t, a, ipv4.Zero, 0)
	for i := 0; i < 3; i++ {
		_ = sa.SendTo(b.FirstAddr(), 7, []byte("x"))
	}
	sim.Sched.Run()
	if sa.Sent != 3 || sb.Delivered != 3 {
		t.Errorf("sent=%d delivered=%d", sa.Sent, sb.Delivered)
	}
}
