package mobileip_test

import (
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
)

// TestRenewalRetransmitsThroughOutage: a backbone outage swallows the
// renewal and its first retransmissions; exponential backoff must carry
// the exchange across the healed window and keep the binding alive.
func TestRenewalRetransmitsThroughOutage(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t) // t ~= 2s; renewal due ~96s after the accepted registration

	uplink := w.net.Sim.SegmentByName("p2p-visitGW-bb2")
	if uplink == nil {
		t.Fatal("visited-domain uplink segment not found")
	}
	w.net.RunFor(92e9) // t ~= 94s, just before the renewal
	log, stop := w.net.Sim.Trace.Capture()
	uplink.SetDown(true)
	w.net.RunFor(7e9) // renewal (~96s) and early retries (~97s, ~99s) vanish
	uplink.SetDown(false)
	stop()
	w.net.RunFor(19e9) // backed-off retry (~103s + jitter) gets through

	if !w.mn.Registered() {
		t.Fatal("renewal never recovered after the outage healed")
	}
	if w.ha.Bindings() != 1 {
		t.Errorf("bindings = %d, want 1", w.ha.Bindings())
	}
	if w.ha.Stats.Expiries != 0 {
		t.Errorf("binding expired (%d) despite successful recovery", w.ha.Stats.Expiries)
	}
	if w.mn.Stats.Renewals < 1 {
		t.Errorf("renewals = %d, want >= 1", w.mn.Stats.Renewals)
	}
	downDrops := 0
	for _, e := range *log {
		if e.Kind == netsim.EventDropDown && e.Where == uplink.Name() {
			downDrops++
		}
	}
	if downDrops == 0 {
		t.Error("outage window dropped nothing; test exercised no retransmission")
	}
}

// TestHACrashRelearnsBindingsFromRenewal: a home agent crash loses all
// soft state; after restart, the next renewal from the mobile node must
// rebuild the binding without any operator intervention (the graceful
// restart path).
func TestHACrashRelearnsBindingsFromRenewal(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)

	w.ha.Crash()
	if !w.ha.Crashed() || w.ha.Bindings() != 0 {
		t.Fatalf("crash left state: crashed=%v bindings=%d", w.ha.Crashed(), w.ha.Bindings())
	}

	// While crashed, the agent neither captures nor tunnels: a ping to
	// the home address just dies on the home LAN.
	ic := icmphost.Install(w.chFar)
	var replies int
	ic.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) { replies++ }
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 3, 1, nil)
	w.net.RunFor(3e9)
	if replies != 0 {
		t.Error("crashed home agent still forwarded traffic")
	}
	if w.ha.Stats.Forwarded != 0 {
		t.Errorf("forwarded = %d while crashed", w.ha.Stats.Forwarded)
	}

	w.ha.Restart()
	// The node believes it is registered; nothing happens until its
	// renewal (~96s after the original acceptance) re-teaches the agent.
	w.net.RunFor(110e9)
	if w.ha.Bindings() != 1 {
		t.Fatalf("bindings = %d after restart + renewal, want 1 (re-learned)", w.ha.Bindings())
	}
	if !w.mn.Registered() {
		t.Error("mobile node lost its registration across the agent restart")
	}
	if w.ha.Stats.Crashes != 1 || w.ha.Stats.Restarts != 1 {
		t.Errorf("crashes/restarts = %d/%d, want 1/1", w.ha.Stats.Crashes, w.ha.Stats.Restarts)
	}

	// Delivery works end-to-end again.
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 3, 2, nil)
	w.net.RunFor(3e9)
	if replies != 1 {
		t.Errorf("replies = %d after recovery, want 1", replies)
	}
}

// TestRegistrationGiveUpThenRecoveryProbe: with the home agent dead, a
// bounded exchange must give up (counted once in RegistrationFails) and
// then keep probing at RegProbeInterval until the agent returns.
func TestRegistrationGiveUpThenRecoveryProbe(t *testing.T) {
	w := buildWorld(t, worldOpts{regMaxRetries: 2, regProbeInterval: 5e9})
	w.ha.Crash()

	w.mn.MoveTo(w.visitLAN.Seg, w.visitLAN.NextAddr(), w.visitLAN.Prefix, w.visitLAN.Gateway)
	// Attempts at ~0s and ~1s, give-up at ~3s (second retry timer).
	w.net.RunFor(4e9)

	if got := w.mn.Stats.RegistrationFails; got != 1 {
		t.Fatalf("RegistrationFails = %d after the give-up, want 1", got)
	}
	if w.mn.Registered() {
		t.Error("node claims registered with a dead agent")
	}

	w.ha.Restart()
	w.net.RunFor(7e9) // probe at ~8s finds the restarted agent

	if !w.mn.Registered() {
		t.Fatal("recovery probe never re-registered after the agent returned")
	}
	if w.mn.Stats.RecoveryProbes < 1 {
		t.Errorf("recovery probes = %d, want >= 1", w.mn.Stats.RecoveryProbes)
	}
	if w.ha.Bindings() != 1 {
		t.Errorf("bindings = %d, want 1", w.ha.Bindings())
	}
}

// TestFACrashLosesVisitorsUntilReregistration: a foreign agent crash
// erases the visitor table; tunneled delivery stays dark until the
// mobile node re-registers through the restarted agent.
func TestFACrashLosesVisitorsUntilReregistration(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	faHost := w.net.AddHost("fa", w.visitLAN)
	w.net.ComputeRoutes()
	fa, err := mobileip.NewForeignAgent(faHost, faHost.Ifaces()[0], mobileip.ForeignAgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w.mn.MoveToForeignAgent(w.visitLAN.Seg, fa.Addr())
	w.net.RunFor(2e9)
	if !w.mn.Registered() || fa.Visitors() != 1 {
		t.Fatalf("FA attach failed: registered=%v visitors=%d", w.mn.Registered(), fa.Visitors())
	}

	fa.Crash()
	if fa.Visitors() != 0 {
		t.Fatalf("visitors = %d after crash, want 0", fa.Visitors())
	}

	// The HA still tunnels to the FA's address, but the dead agent
	// delivers nothing.
	ic := icmphost.Install(w.chFar)
	var replies int
	ic.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) { replies++ }
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 4, 1, nil)
	w.net.RunFor(3e9)
	if replies != 0 {
		t.Error("crashed foreign agent still delivered to its visitor")
	}

	fa.Restart()
	w.mn.Reregister()
	w.net.RunFor(3e9)
	if fa.Visitors() != 1 {
		t.Fatalf("visitors = %d after re-registration, want 1", fa.Visitors())
	}
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 4, 2, nil)
	w.net.RunFor(3e9)
	if replies != 1 {
		t.Errorf("replies = %d after recovery, want 1", replies)
	}
	if fa.Stats.Crashes != 1 || fa.Stats.Restarts != 1 {
		t.Errorf("crashes/restarts = %d/%d, want 1/1", fa.Stats.Crashes, fa.Stats.Restarts)
	}
}

// TestUnboundUDPElectsTemporaryAddress: an unbound socket sending to a
// heuristic port (DNS) must resolve its source through the policy table
// with the transport context attached, electing Out-DT. Regression for a
// gap where source resolution ran before the port was known, pinning the
// home address and making the temporary path unreachable for unbound
// sockets.
func TestUnboundUDPElectsTemporaryAddress(t *testing.T) {
	w := buildWorld(t, worldOpts{selector: core.NewSelector(core.StartOptimistic)})
	w.roam(t)

	sock, err := w.mhHost.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()

	beforeDT := w.mn.Stats.OutByMode[core.OutDT]
	if err := sock.SendTo(w.chFar.FirstAddr(), 53, []byte("query")); err != nil {
		t.Fatal(err)
	}
	w.net.RunFor(1e9)
	if got := w.mn.Stats.OutByMode[core.OutDT]; got <= beforeDT {
		t.Errorf("Out-DT count %d -> %d; unbound DNS send never used the temporary address", beforeDT, got)
	}

	// A non-heuristic port from the same unbound socket stays on the
	// home-address modes.
	beforeDT = w.mn.Stats.OutByMode[core.OutDT]
	beforeDH := w.mn.Stats.OutByMode[core.OutDH]
	if err := sock.SendTo(w.chFar.FirstAddr(), 9999, []byte("bulk")); err != nil {
		t.Fatal(err)
	}
	w.net.RunFor(1e9)
	if got := w.mn.Stats.OutByMode[core.OutDT]; got != beforeDT {
		t.Errorf("Out-DT count moved %d -> %d for a non-heuristic port", beforeDT, got)
	}
	if got := w.mn.Stats.OutByMode[core.OutDH]; got <= beforeDH {
		t.Errorf("Out-DH count %d -> %d; long-lived send should use the home address", beforeDH, got)
	}
}

// TestInterfaceBounceReregisters: the radio drops and returns; Reregister
// on the way back up restores the binding promptly.
func TestInterfaceBounceReregisters(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)

	seg := w.mn.Iface().NIC().Segment()
	w.mn.Iface().Detach()
	w.net.RunFor(1e9)
	w.mn.Iface().Attach(seg)
	w.mn.Reregister()
	w.net.RunFor(2e9)

	if !w.mn.Registered() {
		t.Fatal("node not registered after interface bounce + Reregister")
	}
	if w.ha.Bindings() != 1 {
		t.Errorf("bindings = %d, want 1", w.ha.Bindings())
	}
}
