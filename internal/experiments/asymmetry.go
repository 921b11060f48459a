package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/tcplite"
	"mob4x4/internal/vtime"
)

// AsymmetryResult reproduces the §2 observation about Figure 1: "The
// latency and available bandwidth over the two different paths may be
// significantly different, but this is not unusual for IP." A
// conventional correspondent's packets detour through a slow, narrow
// home-network access link; the mobile host's replies take a fast direct
// path.
type AsymmetryResult struct {
	Delivered     bool
	RequestOneWay vtime.Duration // CH -> MH via the slow home link
	ReplyOneWay   vtime.Duration // MH -> CH direct
	Ratio         float64
	// Throughput of a bulk transfer in each direction (bytes/s of
	// virtual time), shaped by the bandwidth asymmetry.
	InboundBps  float64
	OutboundBps float64
}

// RunAsymmetry builds a topology whose home-agent access link is slow
// (128 kbit/s, 40 ms) while everything else is fast, then measures one
// echo and two 64 KiB transfers.
func RunAsymmetry(seed int64) AsymmetryResult {
	n := inet.New(seed)
	fast := netsim.SegmentOpts{Latency: 1 * Millisecond}
	home := n.AddLAN("home", "36.1.1.0/24", fast)
	visit := n.AddLAN("visit", "128.9.1.0/24", fast)
	far := n.AddLAN("far", "17.5.0.0/24", fast)

	homeGW := n.AddRouter("homeGW")
	visitGW := n.AddRouter("visitGW")
	farGW := n.AddRouter("farGW")
	bb := n.AddRouter("bb")
	n.AttachRouter(homeGW, home)
	n.AttachRouter(visitGW, visit)
	n.AttachRouter(farGW, far)
	// The home domain hangs off a slow access circuit; the rest of the
	// internet is fast. (Built manually so the link can carry
	// bandwidth options.)
	slow := n.Sim.NewSegment("slow-access", netsim.SegmentOpts{
		Latency: 40 * Millisecond, BandwidthBps: 128_000,
	})
	p := ipv4.MustParsePrefix("10.250.0.0/30")
	homeGW.AddIface("to-bb", slow, p.Host(1), p)
	bb.AddIface("to-homeGW", slow, p.Host(2), p)
	n.Link(visitGW, bb, 2*Millisecond)
	n.Link(farGW, bb, 2*Millisecond)

	haHost := n.AddHost("ha", home)
	mhHost, mhIfc := n.AddMobileHost("mh", home)
	chHost := n.AddHost("ch", far)
	n.ComputeRoutes()
	// ComputeRoutes cannot see the hand-built slow link; install the
	// missing routes across it.
	addVia := func(r *stack.Host, prefix string, nh ipv4.Addr) {
		for _, ifc := range r.Ifaces() {
			if ifc.Prefix().Contains(nh) {
				r.Routes().Add(stack.Route{
					Prefix: ipv4.MustParsePrefix(prefix), NextHop: nh, Iface: ifc, Metric: 5,
				})
				return
			}
		}
	}
	addVia(homeGW, "128.9.1.0/24", p.Host(2))
	addVia(homeGW, "17.5.0.0/24", p.Host(2))
	addVia(bb, "36.1.1.0/24", p.Host(1))
	// The visited and far gateways reach the home domain via bb. Link()
	// assigned them Host(1) and bb Host(2) on each transfer net.
	for _, gw := range []*stack.Host{visitGW, farGW} {
		ifc := gw.IfaceByName("to-bb")
		if ifc == nil {
			assert.Unreachable("asymmetry: missing backbone interface")
		}
		addVia(gw, "36.1.1.0/24", ifc.Prefix().Host(2))
	}

	ha, err := mobileip.NewHomeAgent(haHost, haHost.Ifaces()[0], mobileip.HomeAgentConfig{})
	assert.NoError(err, "asymmetry: create home agent")
	_ = ha
	mhTCP := tcplite.New(mhHost)
	mn, err := mobileip.NewMobileNode(mhHost, mhIfc, mobileip.MobileNodeConfig{
		Home:       mhIfc.Addr(),
		HomePrefix: home.Prefix,
		HomeAgent:  haHost.Ifaces()[0].Addr(),
		Selector:   core.NewSelector(core.StartOptimistic), // direct replies
	})
	assert.NoError(err, "asymmetry: create mobile node")
	careOf := visit.NextAddr()
	mn.MoveTo(visit.Seg, careOf, visit.Prefix, visit.Gateway)
	n.RunFor(5 * Second)
	if !mn.Registered() {
		assert.Unreachable("asymmetry: registration failed")
	}

	var res AsymmetryResult

	// One echo for the latency asymmetry.
	log, stop := n.Sim.Trace.Capture()
	echoGot := false
	chSock, err := chHost.OpenUDP(ipv4.Zero, 0, func(src ipv4.Addr, sp uint16, dst ipv4.Addr, pl []byte) {
		echoGot = true
	})
	assert.NoError(err, "asymmetry: open CH socket")
	var mhSock *stack.UDPSocket
	mhSock, err = mhHost.OpenUDP(ipv4.Zero, 4242, func(src ipv4.Addr, sp uint16, dst ipv4.Addr, pl []byte) {
		_ = mhSock.SendToFrom(mn.Home(), src, sp, pl)
	})
	assert.NoError(err, "asymmetry: open MH socket")
	_ = chSock.SendTo(mn.Home(), 4242, []byte("probe"))
	n.RunFor(10 * Second)
	stop()
	res.Delivered = echoGot

	reqID := log.Send("ch", 0)
	res.RequestOneWay, _ = log.Transit(reqID)
	res.ReplyOneWay, _ = log.Transit(log.Send("mh", reqID))
	if res.ReplyOneWay > 0 {
		res.Ratio = float64(res.RequestOneWay) / float64(res.ReplyOneWay)
	}

	// Bulk throughput each way (64 KiB).
	chTCP := tcplite.New(chHost)
	const bulk = 64 * 1024
	measure := func(fromCH bool) float64 {
		var rx int
		var doneAt vtime.Time
		port := uint16(5000)
		if fromCH {
			port = 5001
		}
		serverEP := mhTCP
		clientEP := chTCP
		clientLocal := ipv4.Zero
		target := mn.Home()
		if !fromCH {
			serverEP = chTCP
			clientEP = mhTCP
			clientLocal = mn.Home()
			target = chHost.FirstAddr()
		}
		if _, err := serverEP.Listen(port, func(c *tcplite.Conn) {
			c.OnData = func(b []byte) {
				rx += len(b)
				if rx >= bulk {
					doneAt = n.Sim.Now()
				}
			}
		}); err != nil {
			assert.Unreachable("asymmetry: start sink server: %v", err)
		}
		start := n.Sim.Now()
		conn, err := clientEP.Dial(clientLocal, target, port)
		assert.NoError(err, "asymmetry: dial sink server")
		conn.OnEstablished = func() { _ = conn.Write(make([]byte, bulk)) }
		n.RunFor(120 * Second)
		if rx < bulk || doneAt.Before(start) {
			return 0
		}
		return float64(bulk) / (float64(doneAt.Sub(start)) / 1e9)
	}
	res.InboundBps = measure(true)
	res.OutboundBps = measure(false)
	return res
}

func (r AsymmetryResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§2 — path asymmetry (slow 128kbit/40ms home access link)\n")
	fmt.Fprintf(&b, "  one-way:   CH->MH %v (via HA, slow link twice)   MH->CH %v (direct)   ratio %.1fx\n",
		r.RequestOneWay, r.ReplyOneWay, r.Ratio)
	fmt.Fprintf(&b, "  bulk 64KiB: inbound %.0f B/s   outbound %.0f B/s\n", r.InboundBps, r.OutboundBps)
	return b.String()
}
