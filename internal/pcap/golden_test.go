package pcap_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mob4x4/internal/encap"
	"mob4x4/internal/experiments"
	"mob4x4/internal/inet"
	"mob4x4/internal/netsim"
	"mob4x4/internal/pcap"
	"mob4x4/internal/tcplite"
	"mob4x4/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite pcap golden files")

// arpUDPCapture captures one cold-start UDP exchange on a LAN: the ARP
// request/reply that resolves the peer, then the datagram and its echo.
func arpUDPCapture() *pcap.Writer {
	n := inet.New(3)
	lan := n.AddLAN("lan", "10.0.0.0/24", netsim.SegmentOpts{Latency: vtime.Duration(1e6)})
	a := n.AddHost("a", lan)
	b := n.AddHost("b", lan)
	n.ComputeRoutes()

	w := pcap.NewWriter()
	pcap.Attach(n.Sim, w)

	bs, err := b.OpenUDP(b.FirstAddr(), 7, nil)
	if err != nil {
		panic(err)
	}
	as, err := a.OpenUDP(a.FirstAddr(), 7000, nil)
	if err != nil {
		panic(err)
	}
	_ = as.SendTo(b.FirstAddr(), 7, []byte("hello"))
	n.RunFor(vtime.Duration(50e6))
	_ = bs.SendTo(a.FirstAddr(), 7000, []byte("world"))
	n.RunFor(vtime.Duration(50e6))
	return w
}

// tcpHandshakeCapture captures a correspondent-to-mobile tcplite
// handshake (plus a tiny exchange and orderly close) while the mobile
// host is away from home, so the home agent tunnels every inbound
// segment with the given encapsulation codec.
func tcpHandshakeCapture(codec encap.Codec) *pcap.Writer {
	s := experiments.Build(experiments.Options{Seed: 5, Codec: codec})
	s.Roam()

	// Capture only the conversation, not the registration chatter.
	w := pcap.NewWriter()
	pcap.Attach(s.Net.Sim, w)

	if _, err := s.MHTCP.Listen(80, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { _ = c.Write(p) }
	}); err != nil {
		panic(err)
	}
	conn, err := s.CHFarTCP.Dial(s.CHFar.FirstAddr(), s.MN.Home(), 80)
	if err != nil {
		panic(err)
	}
	conn.OnEstablished = func() { _ = conn.Write([]byte("GET /")) }
	got := 0
	conn.OnData = func(p []byte) {
		got += len(p)
		if got >= 5 {
			conn.Close()
		}
	}
	s.Net.RunFor(2 * experiments.Second)
	return w
}

func TestGoldenCaptures(t *testing.T) {
	cases := []struct {
		name    string
		capture func() *pcap.Writer
	}{
		{"arp_udp", arpUDPCapture},
		{"tcp_handshake_ipip", func() *pcap.Writer { return tcpHandshakeCapture(encap.IPIP{}) }},
		{"tcp_handshake_minenc", func() *pcap.Writer { return tcpHandshakeCapture(encap.MinEnc{}) }},
		{"tcp_handshake_gre", func() *pcap.Writer { return tcpHandshakeCapture(encap.GRE{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.capture()
			if w.Packets() == 0 {
				t.Fatal("capture is empty")
			}
			// Determinism: a fresh world produces identical bytes.
			if again := tc.capture(); !bytes.Equal(w.Bytes(), again.Bytes()) {
				t.Fatal("capture bytes differ between identical runs")
			}
			path := filepath.Join("testdata", tc.name+".pcap")
			if *update {
				if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(w.Bytes(), golden) {
				t.Fatalf("capture differs from golden %s: %d vs %d bytes (re-run with -update if the change is intended)",
					path, len(w.Bytes()), len(golden))
			}
			// Reader verification: the golden parses as a classic
			// nanosecond capture of whole Ethernet frames.
			c, err := pcap.Parse(golden)
			if err != nil {
				t.Fatalf("golden does not parse: %v", err)
			}
			if !c.Nanosecond || c.LinkType != pcap.LinkTypeEthernet {
				t.Fatalf("golden header: %+v", c)
			}
			if len(c.Packets) != w.Packets() {
				t.Fatalf("golden has %d packets, writer reports %d", len(c.Packets), w.Packets())
			}
			last := int64(-1)
			for i, p := range c.Packets {
				if len(p.Data) < 14 {
					t.Fatalf("packet %d shorter than an Ethernet header", i)
				}
				if p.TSNanos < last {
					t.Fatalf("packet %d timestamp regresses", i)
				}
				last = p.TSNanos
			}
		})
	}
}
