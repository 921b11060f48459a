package mobileip_test

import (
	"bytes"
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/race"
	"mob4x4/internal/stack"
)

// TestRoamedSendZeroAllocs pins a roamed mobile node's locally originated
// send at zero allocations in every outgoing mode: the route override
// takes the packet by value, so neither SendIP nor SourceForDestinationPort
// copies the packet to the heap on its way through the mobility policy.
func TestRoamedSendZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	for _, mode := range []core.OutMode{core.OutIE, core.OutDE, core.OutDH, core.OutDT} {
		t.Run(mode.String(), func(t *testing.T) {
			sel := core.NewSelector(core.StartPessimistic)
			m := mode
			sel.AddRule(core.Rule{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), ForceMode: &m})
			w := buildWorld(t, worldOpts{selector: sel, chDecap: true})
			w.roam(t)
			dst := w.chFar.FirstAddr()
			delivered := 0
			w.chFar.Handle(99, func(*stack.Iface, ipv4.Packet) { delivered++ })
			pkt := ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: dst}, Payload: make([]byte, 64)}
			send := func() {
				_ = w.mhHost.SendIP(pkt)
				w.net.RunFor(100e6)
			}
			for i := 0; i < 16; i++ {
				send() // resolve ARP, warm the pools and the scheduler
			}
			if delivered == 0 {
				t.Fatal("warm-up packets not delivered")
			}
			if avg := testing.AllocsPerRun(100, send); avg != 0 {
				t.Errorf("SendIP allocates %.1f times per packet, want 0", avg)
			}
			if avg := testing.AllocsPerRun(100, func() {
				_ = w.mhHost.SourceForDestinationPort(dst, ipv4.ProtoUDP, 80)
			}); avg != 0 {
				t.Errorf("SourceForDestinationPort allocates %.1f times per call, want 0", avg)
			}
		})
	}
}

// TestFragmentedTunnelZeroAllocs pins the tunnel path the paper's §3.3
// overhead argument is about at zero allocations per packet: a 1472-byte
// UDP echo from the far correspondent to the mobile node's home address
// fits a 1500-byte link plain, but the home agent's IPIP header pushes it
// past the MTU, and so does the mobile node's reverse tunnel (Out-IE) on
// the way back. Fragmenting writes into a stack array, and each
// reassembler hands its buffers back once the demux returns.
func TestFragmentedTunnelZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	sel := core.NewSelector(core.StartPessimistic)
	ie := core.OutIE
	sel.AddRule(core.Rule{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), ForceMode: &ie})
	w := buildWorld(t, worldOpts{selector: sel})
	w.roam(t)

	var echo *stack.UDPSocket
	echo, err := w.mhHost.OpenUDP(ipv4.Zero, 7, func(src ipv4.Addr, srcPort uint16, _ ipv4.Addr, payload []byte) {
		_ = echo.SendTo(src, srcPort, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1472)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	echoed, bad := 0, 0
	client, err := w.chFar.OpenUDP(ipv4.Zero, 0, func(_ ipv4.Addr, _ uint16, _ ipv4.Addr, got []byte) {
		echoed++
		if !bytes.Equal(got, payload) {
			bad++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	home := w.mn.Home()
	round := func() {
		_ = client.SendTo(home, 7, payload)
		w.net.RunFor(100e6)
	}
	for i := 0; i < 16; i++ {
		round() // resolve ARP, warm the pools, reassemblers and scheduler
	}
	if echoed != 16 || bad != 0 {
		t.Fatalf("warm-up: %d of 16 echoes back, %d corrupt", echoed, bad)
	}
	frags := w.haHost.Stats.FragsCreated + w.mhHost.Stats.FragsCreated
	reasm := w.mhHost.Stats.Reassembled + w.haHost.Stats.Reassembled
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("a fragmented tunnel echo allocates %.1f times, want 0", avg)
	}
	if echoed != 117 || bad != 0 {
		t.Errorf("%d of 117 echoes back, %d corrupt", echoed, bad)
	}
	// Both directions fragmented and reassembled every echo.
	if n := w.haHost.Stats.FragsCreated + w.mhHost.Stats.FragsCreated - frags; n != 4*101 {
		t.Errorf("%d fragments made for 101 echoes, want %d", n, 4*101)
	}
	if n := w.mhHost.Stats.Reassembled + w.haHost.Stats.Reassembled - reasm; n != 2*101 {
		t.Errorf("%d packets reassembled for 101 echoes, want %d", n, 2*101)
	}
}
