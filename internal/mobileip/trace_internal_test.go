package mobileip

import (
	"testing"

	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/race"
)

// TestMulticastRelayNoTraceAllocs pins the untraced relay path at zero
// allocations per relayed group packet: with no tracer hook installed,
// the relay must not format its event detail. The care-of address
// belongs to a plain host on the home segment, so each relayed copy is
// tunneled, transmitted and delivered without leaving the LAN.
func TestMulticastRelayNoTraceAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	net := inet.New(1)
	home := net.AddLAN("home", "36.1.1.0/24", netsim.SegmentOpts{Latency: 1e6})
	haHost := net.AddHost("ha", home)
	coHost := net.AddHost("co", home)
	net.ComputeRoutes()
	ha, err := NewHomeAgent(haHost, haHost.Ifaces()[0], HomeAgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mh := home.Prefix.Host(100)
	ha.register(&Request{Lifetime: 3600, Home: mh, HomeAgent: ha.Addr(), CareOf: coHost.FirstAddr(), ID: 1})
	group := ipv4.MustParseAddr("224.5.5.5")
	if err := ha.RelayGroup(group, mh); err != nil {
		t.Fatal(err)
	}
	pkt := ipv4.Packet{
		Header:  ipv4.Header{Protocol: 97, TTL: 1, Src: home.Prefix.Host(200), Dst: group},
		Payload: []byte("stream"),
	}
	ifc := haHost.Ifaces()[0]
	relay := func() {
		ha.tapMulticast(ifc, pkt)
		net.RunFor(10e6)
	}
	for i := 0; i < 16; i++ {
		relay() // resolve ARP, warm the pools and the scheduler
	}
	before := ha.Stats.MulticastRelayed
	if avg := testing.AllocsPerRun(100, relay); avg != 0 {
		t.Errorf("relay allocates %.1f times per packet, want 0", avg)
	}
	if got := ha.Stats.MulticastRelayed - before; got != 101 {
		t.Errorf("relayed %d packets, want 101", got)
	}
}
