package stack

import (
	"testing"

	"mob4x4/internal/ipv4"

	"mob4x4/internal/race"
)

// TestForwardingSteadyStateZeroAllocs pins the full router datapath —
// marshal into a pooled frame, segment delivery, header parse, route
// lookup, TTL rewrite, re-marshal, final delivery — at zero allocations per
// packet once pools, caches and the scheduler are warm. This is the
// tentpole property of the zero-allocation fast path: steady-state
// forwarding cost is bounded by copying, not by the garbage collector.
func TestForwardingSteadyStateZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	sim, a, _, dst := threeNets(t)
	delivered := 0
	dst.Handle(99, func(_ *Iface, pkt ipv4.Packet) { delivered++ })
	payload := make([]byte, 1400)
	pkt := ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: dst.FirstAddr()}, Payload: payload}

	// Warm ARP caches, pools and the timer store.
	for i := 0; i < 64; i++ {
		_ = a.SendIP(pkt)
	}
	sim.Sched.Run()
	if delivered == 0 {
		t.Fatal("warmup packets not delivered")
	}

	allocs := testing.AllocsPerRun(200, func() {
		_ = a.SendIP(pkt)
		sim.Sched.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state forwarding allocated %.1f times per run, want 0", allocs)
	}
}
