package stack

import (
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
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

// TestARPMissZeroAllocs pins the ARP-miss path at zero allocations once
// the host's free list and the buffer pool are warm: a send to a nexthop
// the cache does not know queues the packet in a pooled buffer behind a
// recycled job, and the reply drains it. The expiry path, where the
// resolution times out and the queued packet is dropped, allocates
// nothing either.
func TestARPMissZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	sim, a, b := lanPair(t, netsim.SegmentOpts{Latency: 1e6})
	ifc := a.Ifaces()[0]
	delivered := 0
	b.Handle(99, func(_ *Iface, pkt ipv4.Packet) { delivered++ })
	pkt := ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}, Payload: make([]byte, 64)}
	miss := func() {
		ifc.cache.Flush() // the nexthop is cold, as after a move
		_ = a.SendIP(pkt)
		sim.Sched.Run()
	}
	ghost := pkt
	ghost.Dst = ipv4.MustParseAddr("10.0.0.99")
	expire := func() {
		_ = a.SendIP(ghost)
		sim.Sched.Run()
	}
	for i := 0; i < 16; i++ {
		miss()
		expire()
	}
	misses, noARP := ifc.cache.Misses, sim.Metrics.DropCount(metrics.DropNoARP)
	delivered = 0

	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Errorf("ARP miss, reply and drain allocated %.1f times per run, want 0", allocs)
	}
	if delivered != 101 || ifc.cache.Misses-misses < 101 {
		t.Fatalf("delivered %d packets after %d misses, want 101 after at least 101",
			delivered, ifc.cache.Misses-misses)
	}
	if allocs := testing.AllocsPerRun(100, expire); allocs != 0 {
		t.Errorf("ARP expiry allocated %.1f times per run, want 0", allocs)
	}
	if n := sim.Metrics.DropCount(metrics.DropNoARP) - noARP; n != 101 {
		t.Fatalf("drop/no_arp rose by %d, want 101", n)
	}
}

// BenchmarkARPMissDrain is one send to a nexthop missing from the ARP
// cache: the packet is queued, the request and reply cross the LAN, and
// the queue drains. 0 allocs/op once the host's free list and the buffer
// pool are warm.
func BenchmarkARPMissDrain(b *testing.B) {
	sim, a, dst := lanPair(b, netsim.SegmentOpts{Latency: 1e6})
	ifc := a.Ifaces()[0]
	dst.Handle(99, func(*Iface, ipv4.Packet) {})
	pkt := ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: dst.FirstAddr()}, Payload: make([]byte, 64)}
	_ = a.SendIP(pkt)
	sim.Sched.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ifc.cache.Flush()
		_ = a.SendIP(pkt)
		sim.Sched.Run()
	}
}
