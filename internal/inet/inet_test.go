package inet

import (
	"testing"

	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

const ms = vtime.Duration(1e6)

// buildTriangle: three LANs, three gateways, a 2-router backbone path.
func buildTriangle(t testing.TB) (*Network, [3]*LAN) {
	t.Helper()
	n := New(1)
	var lans [3]*LAN
	lans[0] = n.AddLAN("l0", "10.0.0.0/24", netsim.SegmentOpts{Latency: 1 * ms})
	lans[1] = n.AddLAN("l1", "10.1.0.0/24", netsim.SegmentOpts{Latency: 1 * ms})
	lans[2] = n.AddLAN("l2", "10.2.0.0/24", netsim.SegmentOpts{Latency: 1 * ms})
	g0 := n.AddRouter("g0")
	g1 := n.AddRouter("g1")
	g2 := n.AddRouter("g2")
	n.AttachRouter(g0, lans[0])
	n.AttachRouter(g1, lans[1])
	n.AttachRouter(g2, lans[2])
	bb := n.Chain("bb", 2, 5*ms)
	n.Link(g0, bb[0], 5*ms)
	n.Link(g1, bb[1], 5*ms)
	n.Link(g2, bb[1], 5*ms)
	return n, lans
}

func pingOK(t testing.TB, n *Network, from, to string) (bool, vtime.Duration) {
	t.Helper()
	src := n.Host(from)
	dst := n.Host(to)
	ic := icmphost.Install(src)
	icmphost.Install(dst)
	start := n.Sim.Now()
	var rtt vtime.Duration
	ok := false
	ic.OnEchoReply = func(a ipv4.Addr, m icmp.Message) {
		ok = true
		rtt = n.Sim.Now().Sub(start)
	}
	_ = ic.Ping(ipv4.Zero, dst.FirstAddr(), 1, 1, nil)
	n.RunFor(5e9)
	return ok, rtt
}

func TestComputeRoutesConnectsEverything(t *testing.T) {
	n, lans := buildTriangle(t)
	n.AddHost("h0", lans[0])
	n.AddHost("h1", lans[1])
	n.AddHost("h2", lans[2])
	n.ComputeRoutes()

	for _, pair := range [][2]string{{"h0", "h1"}, {"h1", "h2"}, {"h0", "h2"}, {"h2", "h0"}} {
		if ok, _ := pingOK(t, n, pair[0], pair[1]); !ok {
			t.Errorf("%s cannot reach %s", pair[0], pair[1])
		}
	}
}

func TestShortestPathChosen(t *testing.T) {
	// l0's gateway connects to bb0; l2's to bb1. h0->h2 must cross
	// exactly g0, bb0, bb1, g2 = 4 router hops.
	n, lans := buildTriangle(t)
	log, stop := n.Sim.Trace.Capture()
	defer stop()
	n.AddHost("h0", lans[0])
	n.AddHost("h2", lans[2])
	n.ComputeRoutes()
	ok, _ := pingOK(t, n, "h0", "h2")
	if !ok {
		t.Fatal("unreachable")
	}
	// Count forwards of the request via the tracer.
	var reqID uint64
	for _, e := range *log {
		if e.Kind == netsim.EventSend && e.Where == "h0" {
			reqID = e.PktID
			break
		}
	}
	if hops := log.Hops(reqID); hops != 4 {
		t.Errorf("hops = %d, want 4\npath: %s", hops, log.Path(reqID))
	}
}

func TestRoutersOnSharedLANAreAdjacent(t *testing.T) {
	n := New(1)
	shared := n.AddLAN("shared", "10.9.0.0/24", netsim.SegmentOpts{Latency: 1 * ms})
	edge1 := n.AddLAN("e1", "10.1.0.0/24", netsim.SegmentOpts{Latency: 1 * ms})
	edge2 := n.AddLAN("e2", "10.2.0.0/24", netsim.SegmentOpts{Latency: 1 * ms})
	r1 := n.AddRouter("r1")
	r2 := n.AddRouter("r2")
	n.AttachRouter(r1, edge1)
	n.AttachRouter(r1, shared)
	n.AttachRouter(r2, shared)
	n.AttachRouter(r2, edge2)
	n.AddHost("h1", edge1)
	n.AddHost("h2", edge2)
	n.ComputeRoutes()
	if ok, _ := pingOK(t, n, "h1", "h2"); !ok {
		t.Error("no route across a shared LAN")
	}
}

func TestChain(t *testing.T) {
	n := New(1)
	rs := n.Chain("c", 5, ms)
	if len(rs) != 5 {
		t.Fatalf("chain = %d", len(rs))
	}
	for i, r := range rs {
		if r == nil || !r.Forwarding {
			t.Errorf("router %d broken", i)
		}
	}
	// 4 links created -> each end router has 1 iface, middles have 2.
	if got := len(rs[0].Ifaces()); got != 1 {
		t.Errorf("end router ifaces = %d", got)
	}
	if got := len(rs[2].Ifaces()); got != 2 {
		t.Errorf("middle router ifaces = %d", got)
	}
}

func TestLatencyAccumulates(t *testing.T) {
	n, lans := buildTriangle(t)
	n.AddHost("h0", lans[0])
	n.AddHost("h2", lans[2])
	n.ComputeRoutes()
	// First ping warms the ARP caches along the path (its RTT includes
	// the resolution round trips).
	if ok, _ := pingOK(t, n, "h0", "h2"); !ok {
		t.Fatal("unreachable")
	}
	ok, rtt := pingOK(t, n, "h0", "h2")
	if !ok {
		t.Fatal("unreachable on second ping")
	}
	// One-way: 1ms LAN + 5ms + 5ms + 5ms + 1ms LAN = 17ms; RTT = 34ms.
	if rtt != 34*ms {
		t.Errorf("warm rtt = %v, want 34ms", rtt)
	}
}

func TestSetBoundaryFilterTagsInterfaces(t *testing.T) {
	n, lans := buildTriangle(t)
	g0 := n.Router("g0")
	pol := n.SetBoundaryFilter(g0, true, true, "10.0.0.0/24")
	if pol == nil || g0.Filter != pol {
		t.Fatal("policy not installed")
	}
	var inside, outside int
	for _, ifc := range g0.Ifaces() {
		if ifc.Outside {
			outside++
		} else {
			inside++
		}
	}
	if inside != 1 || outside != 1 {
		t.Errorf("inside=%d outside=%d, want 1/1", inside, outside)
	}
	_ = lans
}

func TestAddressAllocation(t *testing.T) {
	n := New(1)
	lan := n.AddLAN("lan", "10.0.0.0/24", netsim.SegmentOpts{})
	gw := n.AddRouter("gw")
	n.AttachRouter(gw, lan)
	if lan.Gateway != ipv4.MustParseAddr("10.0.0.1") {
		t.Errorf("gateway = %s", lan.Gateway)
	}
	h1 := n.AddHost("h1", lan)
	h2 := n.AddHost("h2", lan)
	if h1.FirstAddr() != ipv4.MustParseAddr("10.0.0.2") ||
		h2.FirstAddr() != ipv4.MustParseAddr("10.0.0.3") {
		t.Errorf("host addrs = %s, %s", h1.FirstAddr(), h2.FirstAddr())
	}
}

func TestDuplicateNamesPanic(t *testing.T) {
	n := New(1)
	n.AddLAN("lan", "10.0.0.0/24", netsim.SegmentOpts{})
	assertPanics(t, func() { n.AddLAN("lan", "10.1.0.0/24", netsim.SegmentOpts{}) })
	n.AddRouter("r")
	assertPanics(t, func() { n.AddRouter("r") })
	gw := n.AddRouter("gw")
	n.AttachRouter(gw, n.LANByName("lan"))
	n.AddHost("h", n.LANByName("lan"))
	assertPanics(t, func() { n.AddHost("h", n.LANByName("lan")) })
}

func assertPanics(t testing.TB, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestLookupAccessors(t *testing.T) {
	n, lans := buildTriangle(t)
	if n.LANByName("l0") != lans[0] || n.LANByName("nope") != nil {
		t.Error("LANByName")
	}
	if n.Router("g0") == nil || n.Router("nope") != nil {
		t.Error("Router")
	}
	n.AddHost("h", lans[0])
	if n.Host("h") == nil || n.Host("nope") != nil {
		t.Error("Host")
	}
	if n.Sched() == nil {
		t.Error("Sched")
	}
}
