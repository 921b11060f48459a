package mobileip_test

import (
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
)

// TestPresenceAnnouncementEnablesInDH: the visiting mobile host announces
// itself on the visited segment; the aware local server hears it and
// switches to In-DH — the whole Row C exchange with zero routers.
func TestPresenceAnnouncementEnablesInDH(t *testing.T) {
	w := buildWorld(t, worldOpts{chAware: true, chDecap: true,
		selector: core.NewSelector(core.StartOptimistic)})
	cancel, err := w.chNearC.ListenForVisitors(60)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	w.roam(t)
	w.mn.AnnouncePresence()
	w.net.RunFor(2e9)

	if _, ok := w.chNearC.Policy().Binding(w.mn.Home()); !ok {
		t.Fatal("binding not learned from the announcement")
	}
	if got := w.chNearC.Policy().ModeFor(w.mn.Home(), false); got != core.InDH {
		t.Fatalf("mode = %s, want In-DH", got)
	}

	ic := icmphost.Install(w.chNear)
	replies := 0
	ic.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) { replies++ }
	fwdBefore := w.net.Sim.Metrics.IPForwarded.Value()
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 6, 1, nil)
	w.net.RunFor(2e9)
	if replies != 1 {
		t.Fatal("In-DH ping failed")
	}
	if got := w.net.Sim.Metrics.IPForwarded.Value() - fwdBefore; got != 0 {
		t.Errorf("same-segment exchange used %d router forwards", got)
	}
}

// TestPresenceSpoofRejected: an announcement whose source does not match
// the claimed care-of address is ignored (a host on the segment cannot
// steal another's binding with a forged presence).
func TestPresenceSpoofRejected(t *testing.T) {
	w := buildWorld(t, worldOpts{chAware: true})
	cancel, err := w.chNearC.ListenForVisitors(60)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	w.roam(t)

	// chFar-style attacker is not on the segment; forge from chNear's
	// own segment using a second host.
	atk := w.net.AddHost("atk", w.visitLAN)
	w.net.ComputeRoutes()
	sock, err := atk.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 9)
	b[0] = 17
	home := w.mn.Home()
	copy(b[1:5], home[:])
	evil := ipv4.MustParseAddr("128.9.1.200") // claims a care-of it doesn't hold
	copy(b[5:9], evil[:])
	_ = sock.SendTo(ipv4.Broadcast, 436, b)
	w.net.RunFor(2e9)

	if b, ok := w.chNearC.Policy().Binding(w.mn.Home()); ok {
		t.Fatalf("forged binding accepted: %+v", b)
	}
}

// TestPresenceIgnoredAtHome: announcing at home is a no-op.
func TestPresenceIgnoredAtHome(t *testing.T) {
	w := buildWorld(t, worldOpts{chAware: true})
	w.mn.AnnouncePresence() // at home: nothing sent
	w.net.RunFor(1e9)
	if _, ok := w.chNearC.Policy().Binding(w.mn.Home()); ok {
		t.Error("binding learned from a host that is home")
	}
}

// TestAnnouncePresenceOnMoveOption: the config switch announces
// automatically after each move.
func TestAnnouncePresenceOnMoveOption(t *testing.T) {
	w := buildWorld(t, worldOpts{chAware: true})
	// Rebuild the node with announcements on: reuse the existing host is
	// not possible (route override and claims are installed); instead
	// flip the behavior by moving and announcing manually is already
	// covered, so here we build a second mobile host configured with
	// AnnouncePresence.
	mh2 := w.net.AddHost("mh2", w.homeLAN)
	ifc2 := mh2.Ifaces()[0]
	w.net.ComputeRoutes()
	mn2, err := mobileip.NewMobileNode(mh2, ifc2, mobileip.MobileNodeConfig{
		Home:             ifc2.Addr(),
		HomePrefix:       w.homeLAN.Prefix,
		HomeAgent:        w.haHost.FirstAddr(),
		AnnouncePresence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel, err := w.chNearC.ListenForVisitors(60)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	coa := w.visitLAN.NextAddr()
	mn2.MoveTo(w.visitLAN.Seg, coa, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(3e9)

	b, ok := w.chNearC.Policy().Binding(mn2.Home())
	if !ok || b.CareOf != coa {
		t.Fatalf("binding not learned automatically: %v %v", b, ok)
	}
	if got := w.chNearC.Policy().ModeFor(mn2.Home(), false); got != core.InDH {
		t.Errorf("mode = %s, want In-DH", got)
	}
}
