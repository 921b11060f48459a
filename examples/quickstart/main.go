// Quickstart: build a small internet, start a home agent, roam a mobile
// host to a visited network, and watch a conventional correspondent ping
// it at its home address — the complete Figure 1 flow in one file.
package main

import (
	"fmt"

	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

func main() {
	const ms = vtime.Duration(1e6)

	// 1. Topology: home and visited LANs joined across a tiny backbone.
	net := inet.New(2026)
	home := net.AddLAN("home", "36.1.1.0/24", netsim.SegmentOpts{Latency: 1 * ms})
	visit := net.AddLAN("visit", "128.9.1.0/24", netsim.SegmentOpts{Latency: 1 * ms})
	far := net.AddLAN("far", "17.5.0.0/24", netsim.SegmentOpts{Latency: 1 * ms})

	homeGW := net.AddRouter("homeGW")
	visitGW := net.AddRouter("visitGW")
	farGW := net.AddRouter("farGW")
	bb := net.AddRouter("backbone")
	net.AttachRouter(homeGW, home)
	net.AttachRouter(visitGW, visit)
	net.AttachRouter(farGW, far)
	net.Link(homeGW, bb, 5*ms)
	net.Link(visitGW, bb, 5*ms)
	net.Link(farGW, bb, 5*ms)

	// 2. Hosts: a home agent, a mobile host, a correspondent.
	haHost := net.AddHost("ha", home)
	mhHost := net.AddHost("mh", home)
	chHost := net.AddHost("ch", far)
	net.ComputeRoutes()

	ha, err := mobileip.NewHomeAgent(haHost, haHost.Ifaces()[0], mobileip.HomeAgentConfig{})
	if err != nil {
		panic(err)
	}
	mhIfc := mhHost.Ifaces()[0]
	icmphost.Install(mhHost) // answer pings
	mn, err := mobileip.NewMobileNode(mhHost, mhIfc, mobileip.MobileNodeConfig{
		Home:       mhIfc.Addr(),
		HomePrefix: home.Prefix,
		HomeAgent:  haHost.Ifaces()[0].Addr(),
	})
	if err != nil {
		panic(err)
	}

	// 3. Roam: attach to the visited LAN, take a care-of address there,
	// and register it with the home agent.
	careOf := visit.NextAddr()
	mn.MoveTo(visit.Seg, careOf, visit.Prefix, visit.Gateway)
	net.RunFor(2e9)
	fmt.Printf("mobile host: home=%s care-of=%s registered=%v (HA bindings: %d)\n",
		mn.Home(), mn.CareOf(), mn.Registered(), ha.Bindings())

	// 4. The correspondent pings the PERMANENT home address; the home
	// agent captures and tunnels; the reply comes back directly.
	// A capture window records every packet event of the exchange.
	log, stop := net.Sim.Trace.Capture()
	chIC := icmphost.Install(chHost)
	chIC.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) {
		fmt.Printf("echo reply seq=%d from %s at t=%v\n", msg.Seq, src, net.Sim.Now())
	}
	for seq := uint16(1); seq <= 3; seq++ {
		_ = chIC.Ping(ipv4.Zero, mn.Home(), 1, seq, []byte("hello"))
		net.RunFor(1e9)
	}
	stop()

	// 5. The packet trail: tunnel entry and exit are visible in the trace.
	fmt.Println("\ntrace (tunnel events only):")
	for _, e := range *log {
		if e.Kind == netsim.EventEncap || e.Kind == netsim.EventDecap {
			fmt.Println(" ", e)
		}
	}
}
