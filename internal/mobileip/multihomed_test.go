package mobileip_test

import (
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// TestMultihomedInterfaceBindingIsOutDT exercises §7.1.1's "any of the
// machine's physical interface(s)": a mobile host with a second
// (wireless-like) interface on another visited segment sends Out-DT
// through it when a socket is bound to that interface's address, even
// though the primary mobility interface is registered elsewhere.
func TestMultihomedInterfaceBindingIsOutDT(t *testing.T) {
	sel := core.NewSelector(core.StartPessimistic) // would tunnel by default
	w := buildWorld(t, worldOpts{selector: sel})
	w.roam(t)

	// Second interface: attach to the far LAN (as if a second radio).
	wirelessAddr := w.farLAN.NextAddr()
	w2 := w.mhHost.AddIface("wlan0", w.farLAN.Seg, wirelessAddr, w.farLAN.Prefix)
	_ = w2

	var got []ipv4.Addr
	if _, err := w.chFar.OpenUDP(ipv4.Zero, 9999, func(src ipv4.Addr, sp uint16, dst ipv4.Addr, p []byte) {
		got = append(got, src)
	}); err != nil {
		t.Fatal(err)
	}

	// A socket bound to the wireless address: Out-DT through wlan0,
	// single LAN hop to chFar, no tunnel.
	sock, err := w.mhHost.OpenUDP(wirelessAddr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, stop := w.net.Sim.Trace.Capture()
	defer stop()
	if err := sock.SendTo(w.chFar.FirstAddr(), 9999, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	w.net.RunFor(2e9)

	if len(got) != 1 || got[0] != wirelessAddr {
		t.Fatalf("delivery = %v, want from %s", got, wirelessAddr)
	}
	if countKind(*log, netsim.EventEncap) != 0 {
		t.Error("bound-interface traffic was tunneled")
	}
	if w.mn.Stats.OutByMode[core.OutDT] == 0 {
		t.Error("Out-DT not recorded for interface-bound traffic")
	}

	// The same destination via an unbound socket still tunnels
	// (pessimistic selector -> Out-IE).
	sock2, err := w.mhHost.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sock2.SendTo(w.chFar.FirstAddr(), 9999, []byte("tunneled")); err != nil {
		t.Fatal(err)
	}
	w.net.RunFor(2e9)
	if countKind(*log, netsim.EventEncap) == 0 {
		t.Error("unbound traffic was not tunneled under the pessimistic selector")
	}
}
