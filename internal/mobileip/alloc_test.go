package mobileip_test

import (
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
