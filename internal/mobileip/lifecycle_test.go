package mobileip_test

import (
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/encap"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/stack"
)

func TestBindingLifetimeExpiry(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	// The default lifetime is 120s with renewal at 96s; kill the mobile
	// host before renewal by detaching it, then let the binding expire.
	w.mn.Detach()
	w.net.RunFor(121e9)
	if w.ha.Bindings() != 0 {
		t.Errorf("binding survived its lifetime: %d", w.ha.Bindings())
	}
	if w.ha.Stats.Expiries != 1 {
		t.Errorf("expiries = %d", w.ha.Stats.Expiries)
	}
	// The proxy-ARP entry is gone too: pings to the home address now
	// just vanish on the home LAN instead of reaching the HA.
	fwdBefore := w.ha.Stats.Forwarded
	ic := icmphost.Install(w.chFar)
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 1, 1, nil)
	w.net.RunFor(3e9)
	if w.ha.Stats.Forwarded != fwdBefore {
		t.Error("expired binding still forwarding")
	}
}

func TestRegistrationRenewalKeepsBindingAlive(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	// Run past several lifetimes; renewals must keep the binding.
	w.net.RunFor(400e9)
	if !w.mn.Registered() || w.ha.Bindings() != 1 {
		t.Fatalf("binding lost: registered=%v bindings=%d", w.mn.Registered(), w.ha.Bindings())
	}
	if w.mn.Stats.Renewals < 3 {
		t.Errorf("renewals = %d, want >= 3", w.mn.Stats.Renewals)
	}
	if w.ha.Stats.Expiries != 0 {
		t.Errorf("expiries = %d during steady renewal", w.ha.Stats.Expiries)
	}
}

func TestGoHomeDeregistersAndReclaims(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	w.mn.GoHome(w.homeLAN.Seg, w.homeLAN.Gateway)
	w.net.RunFor(3e9)

	if w.mn.Registered() || !w.mn.AtHome() {
		t.Error("node still registered/away after GoHome")
	}
	if w.ha.Bindings() != 0 {
		t.Errorf("binding survived deregistration: %d", w.ha.Bindings())
	}
	if w.ha.Stats.Deregistrations != 1 {
		t.Errorf("deregistrations = %d", w.ha.Stats.Deregistrations)
	}

	// Conversations now run completely normally: ping from far CH goes
	// directly, no tunnel.
	ic := icmphost.Install(w.chFar)
	delivered := false
	ic.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) { delivered = src == w.mn.Home() }
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 1, 1, nil)
	w.net.RunFor(3e9)
	if !delivered {
		t.Fatal("ping to home address failed after return")
	}
	if w.ha.Stats.Forwarded != 0 {
		t.Errorf("HA tunneled %d packets for a host that is home", w.ha.Stats.Forwarded)
	}
}

func TestSecondMoveRebinds(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	first := w.roam(t)
	second := w.visitLAN.NextAddr()
	w.mn.MoveTo(w.visitLAN.Seg, second, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(3e9)
	if !w.mn.Registered() {
		t.Fatal("re-registration failed")
	}
	if got, _ := w.ha.CareOf(w.mn.Home()); got != second || got == first {
		t.Errorf("binding = %s, want %s", got, second)
	}
	if w.ha.Bindings() != 1 {
		t.Errorf("bindings = %d", w.ha.Bindings())
	}
}

func TestReverseTunnelRejectsForgedOuterSource(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)

	// An attacker on the far LAN tunnels a packet to the HA with an
	// inner source of the mobile host but the WRONG outer source (its
	// own). The HA must not relay it (Section 6.1's spoofing concern).
	attacker := w.chFar
	inner := ipv4.Packet{
		Header: ipv4.Header{
			Protocol: 99, TTL: 64,
			Src: w.mn.Home(), // forged
			Dst: w.chNear.FirstAddr(),
		},
		Payload: []byte("evil"),
	}
	outer, err := encap.IPIP{}.AppendEncap(inner, attacker.FirstAddr(), w.haHost.FirstAddr(), ipv4.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	w.chNear.Handle(99, func(_ *stack.Iface, pkt ipv4.Packet) { got++ })
	relayedBefore := w.ha.Stats.ReverseRelayed
	_ = attacker.SendIP(outer)
	w.net.RunFor(3e9)
	if got != 0 {
		t.Error("forged reverse-tunnel packet relayed to victim")
	}
	if w.ha.Stats.ReverseRelayed != relayedBefore {
		t.Error("forged packet counted as relayed")
	}
}

// TestTunnelEndpointCounts pins where the tunnel endpoints count their
// work: a decapsulation the codec rejects counts nothing; one it accepts
// counts at the endpoint and in the registry's global total, even when
// the endpoint then drops the inner packet (the home agent's forged
// reverse tunnel); and a packet tunneled to the roamed node counts one
// encapsulation at the home agent and one decapsulation at the node.
func TestTunnelEndpointCounts(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	w.mhHost.Handle(99, func(*stack.Iface, ipv4.Packet) {})
	reg := w.net.Sim.Metrics
	type counts struct{ enc, dec, haEnc, haDec, mnEnc, mnDec uint64 }
	read := func() counts {
		return counts{reg.Encaps.Value(), reg.Decaps.Value(),
			w.ha.Stats.Encaps, w.ha.Stats.Decaps, w.mn.Stats.Encaps, w.mn.Stats.Decaps}
	}

	attacker := w.chFar
	inner := ipv4.Packet{
		Header:  ipv4.Header{Protocol: 99, TTL: 64, Src: w.mn.Home(), Dst: w.chNear.FirstAddr()},
		Payload: []byte("evil"),
	}
	forged, err := encap.IPIP{}.AppendEncap(inner, attacker.FirstAddr(), w.haHost.FirstAddr(), ipv4.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	garbled := forged
	garbled.Payload = forged.Payload[:3] // too short for an inner header

	before := read()
	_ = attacker.SendIP(garbled)
	w.net.RunFor(1e9)
	if got := read(); got != before {
		t.Errorf("rejected decapsulation counted: %+v -> %+v", before, got)
	}

	relayed := w.ha.Stats.ReverseRelayed
	_ = attacker.SendIP(forged)
	w.net.RunFor(1e9)
	want := before
	want.dec++
	want.haDec++
	if got := read(); got != want {
		t.Errorf("dropped reverse tunnel: counts %+v, want %+v", got, want)
	}
	if w.ha.Stats.ReverseRelayed != relayed {
		t.Error("forged reverse tunnel relayed")
	}

	before = read()
	_ = w.chFar.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: 99, Dst: w.mn.Home()},
		Payload: []byte("hello"),
	})
	w.net.RunFor(1e9)
	want = before
	want.enc++
	want.haEnc++
	want.dec++
	want.mnDec++
	if got := read(); got != want {
		t.Errorf("tunneled delivery: counts %+v, want %+v", got, want)
	}

	// Every endpoint reports both of its counts, even at zero.
	snap := reg.Snapshot()
	for _, name := range []string{"ha/encaps", "ha/decaps", "mn/encaps", "mn/decaps", "ch/encaps", "ch/decaps"} {
		if _, ok := snap.Counter(name); !ok {
			t.Errorf("snapshot lacks %s", name)
		}
	}
}

func TestBindingNoticeSentOncePerSource(t *testing.T) {
	w := buildWorld(t, worldOpts{notices: true})
	w.roam(t)
	ic := icmphost.Install(w.chFar)
	var notices int
	ic.OnBinding = func(src ipv4.Addr, msg icmp.Message) { notices++ }
	for i := 0; i < 4; i++ {
		_ = ic.Ping(ipv4.Zero, w.mn.Home(), 7, uint16(i+1), nil)
		w.net.RunFor(2e9)
	}
	if notices != 1 {
		t.Errorf("notices = %d, want 1 (rate limited per binding generation)", notices)
	}
	if w.ha.Stats.NoticesSent != 1 {
		t.Errorf("HA notices sent = %d", w.ha.Stats.NoticesSent)
	}
}

func TestOutModeCountsTracked(t *testing.T) {
	sel := core.NewSelector(core.StartOptimistic)
	w := buildWorld(t, worldOpts{selector: sel})
	w.roam(t)
	// Home-sourced traffic to the far CH: optimistic -> Out-DH.
	_ = w.mhHost.SendIP(ipv4.Packet{
		Header: ipv4.Header{Protocol: 99, Src: w.mn.Home(), Dst: w.chFar.FirstAddr()},
	})
	// Care-of-sourced traffic: Out-DT.
	_ = w.mhHost.SendIP(ipv4.Packet{
		Header: ipv4.Header{Protocol: 99, Src: w.mn.CareOf(), Dst: w.chFar.FirstAddr()},
	})
	w.net.RunFor(1e9)
	if w.mn.Stats.OutByMode[core.OutDH] == 0 {
		t.Error("Out-DH not counted")
	}
	if w.mn.Stats.OutByMode[core.OutDT] == 0 {
		t.Error("Out-DT not counted")
	}
}

func TestRegistrationDeniedWrongHomeAgent(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	// Point the MN at a host that is NOT its home agent (the far CH).
	mn2Host := w.chNear
	ifc := mn2Host.Ifaces()[0]
	mn2, err := mobileip.NewMobileNode(mn2Host, ifc, mobileip.MobileNodeConfig{
		Home:          ifc.Addr(),
		HomePrefix:    w.visitLAN.Prefix,
		HomeAgent:     w.haHost.FirstAddr(), // HA serves 36.1.1/24, not 128.9.1/24
		RegMaxRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mn2.MoveTo(w.farLAN.Seg, w.farLAN.NextAddr(), w.farLAN.Prefix, w.farLAN.Gateway)
	w.net.RunFor(5e9)
	if mn2.Registered() {
		t.Error("registration accepted for a home address outside the HA's network")
	}
	if mn2.Stats.RegistrationFails == 0 {
		t.Error("denial not recorded")
	}
	if w.ha.Bindings() != 0 {
		t.Error("HA holds a binding it should have denied")
	}
}
