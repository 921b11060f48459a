package mobileip_test

import (
	"fmt"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
)

func TestHomeAgentMaxBindings(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	// Rebuild the agent with a capacity of 1 on a fresh host to avoid
	// the port-434 clash with the world's agent.
	haHost2 := stack.NewHost(w.net.Sim, "ha2")
	ifc := haHost2.AddIface("eth0", w.homeLAN.Seg, w.homeLAN.NextAddr(), w.homeLAN.Prefix)
	haHost2.Routes().AddDefault(ifc, w.homeLAN.Gateway)
	ha2, err := mobileip.NewHomeAgent(haHost2, ifc, mobileip.HomeAgentConfig{MaxBindings: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Two registration requests from different "mobile hosts" (faked
	// directly over UDP from the visited LAN).
	sock, err := w.chNear.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mkReq := func(home ipv4.Addr, id uint64) []byte {
		r := mobileip.Request{
			Lifetime: 120, Home: home, HomeAgent: ifc.Addr(),
			CareOf: w.chNear.FirstAddr(), ID: id,
		}
		return r.Marshal()
	}
	_ = sock.SendTo(ifc.Addr(), udp.PortRegistration, mkReq(w.homeLAN.Prefix.Host(50), 1))
	w.net.RunFor(2e9)
	_ = sock.SendTo(ifc.Addr(), udp.PortRegistration, mkReq(w.homeLAN.Prefix.Host(51), 1))
	w.net.RunFor(2e9)

	if ha2.Bindings() != 1 {
		t.Errorf("bindings = %d, want capacity limit 1", ha2.Bindings())
	}
	// Refreshing the existing binding is still allowed at capacity.
	_ = sock.SendTo(ifc.Addr(), udp.PortRegistration, mkReq(w.homeLAN.Prefix.Host(50), 2))
	w.net.RunFor(2e9)
	if ha2.Bindings() != 1 {
		t.Errorf("bindings after refresh = %d", ha2.Bindings())
	}
}

func TestRegistrationRetriesExhaustOnBlackhole(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	// Cut the visited LAN off from the home network before moving: the
	// gateway loses its route toward the home domain, so registration
	// requests vanish in a blackhole.
	w.visitGW.Routes().Remove(ipv4.MustParsePrefix("36.1.1.0/24"))
	careOf := w.visitLAN.NextAddr()
	w.mn.MoveTo(w.visitLAN.Seg, careOf, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(30e9)
	if w.mn.Registered() {
		t.Fatal("registered through a blackhole?")
	}
	if w.mn.Stats.RegistrationFails == 0 {
		t.Error("retry exhaustion not recorded")
	}
	// Packets sent meanwhile via Out-IE are lost — the paper's
	// "transition period" packet loss — but nothing crashes, and a
	// later repaired network lets a fresh move register.
	w.net.ComputeRoutes()
	careOf2 := w.visitLAN.NextAddr()
	w.mn.MoveTo(w.visitLAN.Seg, careOf2, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(5e9)
	if !w.mn.Registered() {
		t.Error("recovery registration failed")
	}
}

func TestForeignAgentVisitorExpiry(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	faHost := w.net.AddHost("fa", w.visitLAN)
	w.net.ComputeRoutes()
	fa, err := mobileip.NewForeignAgent(faHost, faHost.Ifaces()[0], mobileip.ForeignAgentConfig{
		VisitorLifetime: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.mn.MoveToForeignAgent(w.visitLAN.Seg, fa.Addr())
	w.net.RunFor(3e9)
	if fa.Visitors() != 1 {
		t.Fatalf("visitors = %d", fa.Visitors())
	}
	// Stop the node from refreshing and let the visitor entry lapse.
	w.mn.Detach()
	w.net.RunFor(10e9)
	if fa.Visitors() != 0 {
		t.Errorf("visitor entry survived its lifetime: %d", fa.Visitors())
	}
}

func TestGoHomeWithoutEverRoaming(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	// GoHome from home: a harmless no-op re-assertion.
	w.mn.GoHome(w.homeLAN.Seg, w.homeLAN.Gateway)
	w.net.RunFor(3e9)
	if !w.mn.AtHome() || w.mn.Registered() {
		t.Error("state wrong after redundant GoHome")
	}
	if w.ha.Bindings() != 0 {
		t.Error("phantom binding")
	}
}

func TestDeregistrationIsAcknowledged(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	deregsBefore := w.ha.Stats.Deregistrations
	w.mn.GoHome(w.homeLAN.Seg, w.homeLAN.Gateway)
	w.net.RunFor(3e9)
	if w.ha.Stats.Deregistrations != deregsBefore+1 {
		t.Errorf("deregistrations = %d", w.ha.Stats.Deregistrations)
	}
}

func TestTunnelTraceEventsRecorded(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	log, stop := w.net.Sim.Trace.Capture()
	_ = w.chFar.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: 99, Dst: w.mn.Home()},
		Payload: []byte("x"),
	})
	w.net.RunFor(2e9)
	stop()
	if countKind(*log, netsim.EventEncap) != 1 {
		t.Error("encap event missing")
	}
	if countKind(*log, netsim.EventDecap) != 1 {
		t.Error("decap event missing")
	}
	// The tunnel's two ends, as Figure 1 draws them.
	ch, home, careOf := w.chFar.FirstAddr(), w.mn.Home(), w.mn.CareOf()
	ha := w.haHost.Ifaces()[0].Addr()
	want := map[netsim.EventKind]string{
		netsim.EventEncap: fmt.Sprintf("ha: tunnel %s > %s (inner %s > %s)", ha, careOf, ch, home),
		netsim.EventDecap: fmt.Sprintf("mh: detunnel: inner %s > %s", ch, home),
	}
	for _, e := range *log {
		if w, ok := want[e.Kind]; ok {
			if got := e.Where + ": " + e.Detail; got != w {
				t.Errorf("%s event = %q, want %q", e.Kind, got, w)
			}
		}
	}
}

// countKind counts the events of one kind in a capture.
func countKind(l netsim.Log, kind netsim.EventKind) int {
	n := 0
	for _, e := range l {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
