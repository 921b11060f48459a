package mobileip_test

import (
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/stack"
)

var group = ipv4.MustParseAddr("239.1.2.3")

func TestMulticastLocalJoinBeatsTunnel(t *testing.T) {
	// Local join: a multicast source on the VISITED network, the roamed
	// MH joins through its physical interface — zero Mobile IP
	// involvement (the paper's recommendation).
	w := buildWorld(t, worldOpts{})
	w.roam(t)

	var localGot int
	w.mhHost.Handle(97, func(_ *stack.Iface, pkt ipv4.Packet) { localGot++ })
	w.mn.JoinMulticastLocal(group)

	// chNear multicasts on the visited LAN.
	sender := w.chNear
	sIfc := sender.Ifaces()[0]
	for i := 0; i < 3; i++ {
		_ = sender.SendMulticast(sIfc, ipv4.Packet{
			Header:  ipv4.Header{Protocol: 97, Dst: group},
			Payload: []byte("stream"),
		})
	}
	w.net.RunFor(2e9)
	if localGot != 3 {
		t.Fatalf("local join delivered %d/3", localGot)
	}
	if w.ha.Stats.MulticastRelayed != 0 {
		t.Error("local join involved the home agent")
	}
	if w.mn.Stats.Decaps != 0 {
		t.Error("local join tunneled packets")
	}
}

func TestMulticastHomeRelayIsSelfDefeating(t *testing.T) {
	// Relay mode: the source is on the HOME network; the HA joins on the
	// MH's behalf and tunnels every packet across the internet.
	w := buildWorld(t, worldOpts{})
	w.roam(t)

	var got int
	w.mhHost.Handle(97, func(_ *stack.Iface, pkt ipv4.Packet) { got++ })
	if err := w.ha.RelayGroup(group, w.mn.Home()); err != nil {
		t.Fatal(err)
	}

	// A separate host on the home LAN sources the stream (the agent
	// cannot tap its own transmissions: taps see received packets).
	sender := stack.NewHost(w.net.Sim, "mcastsrc")
	sIfc := sender.AddIface("eth0", w.homeLAN.Seg, w.homeLAN.NextAddr(), w.homeLAN.Prefix)
	fwdBefore := w.net.Sim.Metrics.IPForwarded.Value()
	for i := 0; i < 3; i++ {
		_ = sender.SendMulticast(sIfc, ipv4.Packet{
			Header:  ipv4.Header{Protocol: 97, Src: sender.FirstAddr(), Dst: group},
			Payload: []byte("stream"),
		})
	}
	w.net.RunFor(3e9)

	if got != 3 {
		t.Fatalf("relay delivered %d/3", got)
	}
	if w.ha.Stats.MulticastRelayed != 3 {
		t.Errorf("relayed = %d", w.ha.Stats.MulticastRelayed)
	}
	if w.mn.Stats.Decaps != 3 {
		t.Errorf("tunneled in = %d", w.mn.Stats.Decaps)
	}
	// The self-defeating part: every group packet crossed the backbone
	// (forwarding events), where a local join would have crossed none.
	if fwd := w.net.Sim.Metrics.IPForwarded.Value() - fwdBefore; fwd == 0 {
		t.Error("relay mode used no routers?")
	}
}

func TestMulticastRelayRequiresBinding(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	// Not roamed: no binding.
	if err := w.ha.RelayGroup(group, w.mn.Home()); err == nil {
		t.Error("relay accepted without a binding")
	}
	if err := w.ha.RelayGroup(ipv4.MustParseAddr("17.5.0.2"), w.mn.Home()); err == nil {
		t.Error("relay accepted a unicast 'group'")
	}
}

func TestMulticastStopRelay(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	if err := w.ha.RelayGroup(group, w.mn.Home()); err != nil {
		t.Fatal(err)
	}
	w.ha.StopRelayGroup(group, w.mn.Home())

	sender := stack.NewHost(w.net.Sim, "mcastsrc")
	sIfc := sender.AddIface("eth0", w.homeLAN.Seg, w.homeLAN.NextAddr(), w.homeLAN.Prefix)
	_ = sender.SendMulticast(sIfc, ipv4.Packet{
		Header: ipv4.Header{Protocol: 97, Src: sender.FirstAddr(), Dst: group},
	})
	w.net.RunFor(2e9)
	if w.ha.Stats.MulticastRelayed != 0 {
		t.Error("stopped relay still forwarding")
	}
}

func TestMulticastMembershipFilters(t *testing.T) {
	// A host that has NOT joined must not see group traffic on its
	// segment.
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	var got int
	w.chNear.Handle(97, func(_ *stack.Iface, pkt ipv4.Packet) { got++ })
	// MH multicasts locally; chNear (not joined) must not deliver.
	w.mn.JoinMulticastLocal(group)
	_ = w.mhHost.SendMulticast(w.mhIfc, ipv4.Packet{
		Header: ipv4.Header{Protocol: 97, Src: w.mn.CareOf(), Dst: group},
	})
	w.net.RunFor(1e9)
	if got != 0 {
		t.Errorf("non-member delivered %d group packets", got)
	}
	// After joining, it does.
	w.chNear.JoinGroup(w.chNear.Ifaces()[0], group)
	_ = w.mhHost.SendMulticast(w.mhIfc, ipv4.Packet{
		Header: ipv4.Header{Protocol: 97, Src: w.mn.CareOf(), Dst: group},
	})
	w.net.RunFor(1e9)
	if got != 1 {
		t.Errorf("member delivered %d group packets, want 1", got)
	}
}
