package mobileip_test

import (
	"fmt"
	"reflect"
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

func TestOutDEDeliveredToDecapCapableCH(t *testing.T) {
	sel := core.NewSelector(core.StartPessimistic)
	m := core.OutDE
	sel.AddRule(core.Rule{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), ForceMode: &m})
	w := buildWorld(t, worldOpts{selector: sel, chDecap: true})
	w.roam(t)

	ic := icmphost.Install(w.chFar)
	var requests int
	ic.OnEchoRequest = func(src ipv4.Addr, msg icmp.Message) { requests++ }

	// MH pings CH: Out-DE encapsulates directly to the correspondent,
	// which decapsulates and answers.
	var replies int
	w.mhICMP.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) { replies++ }
	_ = w.mhICMP.Ping(ipv4.Zero, w.chFar.FirstAddr(), 1, 1, nil)
	w.net.RunFor(3e9)

	if requests != 1 {
		t.Fatalf("CH received %d requests", requests)
	}
	if w.chFarC.Stats.Decaps != 1 {
		t.Errorf("decapsulated = %d", w.chFarC.Stats.Decaps)
	}
	if replies != 1 {
		t.Errorf("MH received %d replies", replies)
	}
	// The tunnel went straight to the CH: the HA relayed nothing.
	if w.ha.Stats.ReverseRelayed != 0 {
		t.Errorf("HA relayed %d packets in Out-DE mode", w.ha.Stats.ReverseRelayed)
	}
}

func TestAwareCHSwitchesToInDE(t *testing.T) {
	w := buildWorld(t, worldOpts{notices: true, chAware: true, chDecap: true,
		selector: core.NewSelector(core.StartOptimistic)})
	w.roam(t)

	ic := icmphost.Install(w.chFar)
	// NewCorrespondent wired OnBinding on the world's original ICMP
	// endpoint; reinstalling replaced the handler chain, so rewire.
	reattachBinding(w, ic)
	var replies int
	ic.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) { replies++ }

	log, stop := w.net.Sim.Trace.Capture()
	for seq := uint16(1); seq <= 3; seq++ {
		_ = ic.Ping(ipv4.Zero, w.mn.Home(), 9, seq, nil)
		w.net.RunFor(3e9)
	}
	stop()
	if replies != 3 {
		t.Fatalf("replies = %d", replies)
	}
	// The correspondent's own trace: it learns the binding from the
	// notice, then tunnels the next two requests straight to the care-of
	// address (Figure 5).
	var got []string
	for _, e := range *log {
		if e.Where == w.chFar.Name() && (e.Kind == netsim.EventRegister || e.Kind == netsim.EventEncap) {
			got = append(got, e.Detail)
		}
	}
	ch, home, careOf := w.chFar.FirstAddr(), w.mn.Home(), w.mn.CareOf()
	tunnel := fmt.Sprintf("CH tunnel %s > %s (inner dst %s)", ch, careOf, home)
	want := []string{fmt.Sprintf("learned binding %s -> %s (on-link=false)", home, careOf), tunnel, tunnel}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("correspondent events = %q, want %q", got, want)
	}
	// First ping went via the HA; the notice then switched the CH to
	// In-DE for the rest.
	if w.ha.Stats.Forwarded != 1 {
		t.Errorf("HA forwarded = %d, want 1", w.ha.Stats.Forwarded)
	}
	if w.chFarC.Stats.SentInDE != 2 {
		t.Errorf("SentInDE = %d, want 2", w.chFarC.Stats.SentInDE)
	}
}

// reattachBinding rewires the binding-notice callback after a test
// replaced the host's ICMP endpoint.
func reattachBinding(w *world, ic *icmphost.ICMP) {
	ic.OnBinding = func(src ipv4.Addr, msg icmp.Message) {
		w.chFarC.LearnBinding(core.Binding{Home: msg.Home, CareOf: msg.CareOf}, msg.Lifetime)
	}
}

func TestSameSegmentCHUsesInDH(t *testing.T) {
	w := buildWorld(t, worldOpts{chAware: true, chDecap: true,
		selector: core.NewSelector(core.StartOptimistic)})
	careOf := w.roam(t)

	// The near correspondent (same LAN as the roamed MH) learns the
	// binding; the care-of address is on its own prefix -> In-DH.
	w.chNearC.LearnBinding(core.Binding{Home: w.mn.Home(), CareOf: careOf}, 0)

	ic := icmphost.Install(w.chNear)
	var replies int
	ic.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) { replies++ }
	fwdBefore := w.net.Sim.Metrics.IPForwarded.Value()
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 2, 1, nil)
	w.net.RunFor(3e9)

	if replies != 1 {
		t.Fatalf("replies = %d", replies)
	}
	if w.chNearC.Stats.SentInDH != 1 {
		t.Errorf("SentInDH = %d", w.chNearC.Stats.SentInDH)
	}
	// Zero router involvement in either direction (Row C).
	if got := w.net.Sim.Metrics.IPForwarded.Value() - fwdBefore; got != 0 {
		t.Errorf("routers forwarded %d packets on a same-segment exchange", got)
	}
	if w.ha.Stats.Forwarded != 0 {
		t.Errorf("HA involved: %d", w.ha.Stats.Forwarded)
	}
}

func TestBindingExpiryFallsBackToInIE(t *testing.T) {
	w := buildWorld(t, worldOpts{notices: true, chAware: true, chDecap: true,
		selector: core.NewSelector(core.StartOptimistic)})
	w.roam(t)
	ic := icmphost.Install(w.chFar)
	reattachBinding(w, ic)

	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 3, 1, nil)
	w.net.RunFor(3e9)
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); !ok {
		t.Fatal("binding not learned")
	}
	// Default notice lifetime is 60s; wait it out.
	w.net.RunFor(70e9)
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); ok {
		t.Error("binding survived its lifetime")
	}
	if w.chFarC.Stats.BindingsExpired != 1 {
		t.Errorf("expired = %d", w.chFarC.Stats.BindingsExpired)
	}
	// Next packet goes via the HA again.
	fwd := w.ha.Stats.Forwarded
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 3, 2, nil)
	w.net.RunFor(3e9)
	if w.ha.Stats.Forwarded != fwd+1 {
		t.Error("CH did not fall back to In-IE after expiry")
	}
}

func TestNonAwareCHIgnoresNotices(t *testing.T) {
	w := buildWorld(t, worldOpts{notices: true, chAware: false, chDecap: false,
		selector: core.NewSelector(core.StartOptimistic)})
	w.roam(t)
	ic := icmphost.Install(w.chFar)
	for seq := uint16(1); seq <= 3; seq++ {
		_ = ic.Ping(ipv4.Zero, w.mn.Home(), 4, seq, nil)
		w.net.RunFor(3e9)
	}
	// Every packet keeps going through the HA.
	if w.ha.Stats.Forwarded != 3 {
		t.Errorf("HA forwarded = %d, want 3", w.ha.Stats.Forwarded)
	}
	if w.chFarC.Stats.SentInDE != 0 {
		t.Error("non-aware CH sent In-DE")
	}
}

func TestForgetBindingOnDemand(t *testing.T) {
	w := buildWorld(t, worldOpts{chAware: true, chDecap: true})
	careOf := w.roam(t)
	w.chFarC.LearnBinding(core.Binding{Home: w.mn.Home(), CareOf: careOf}, 0)
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); !ok {
		t.Fatal("not learned")
	}
	w.chFarC.ForgetBinding(w.mn.Home())
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); ok {
		t.Error("not forgotten")
	}
}
