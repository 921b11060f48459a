package stack

import (
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// TestReassemblyTimeoutDiscardsPartial: lose one fragment and verify the
// receiver gives up after the reassembly timeout instead of keeping the
// context forever.
func TestReassemblyTimeoutDiscardsPartial(t *testing.T) {
	sim := netsim.NewSim(1)
	seg := sim.NewSegment("lan", netsim.SegmentOpts{MTU: 576})
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	a := NewHost(sim, "a")
	a.AddIface("eth0", seg, prefix.Host(1), prefix)
	b := NewHost(sim, "b")
	b.AddIface("eth0", seg, prefix.Host(2), prefix)

	var delivered int
	b.Handle(99, func(_ *Iface, pkt ipv4.Packet) { delivered++ })

	// Build the fragments by hand and deliver all but one.
	pkt := ipv4.Packet{
		Header:  ipv4.Header{Protocol: 99, TTL: 64, ID: 7, Src: a.FirstAddr(), Dst: b.FirstAddr()},
		Payload: make([]byte, 2000),
	}
	frags, err := ipv4.Fragment(pkt, 576)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("only %d fragments", len(frags))
	}
	for i, f := range frags {
		if i == 1 {
			continue // lost
		}
		b.receiveIP(b.Ifaces()[0], f)
	}
	sim.Sched.Run() // fires the reassembly timeout

	if delivered != 0 {
		t.Error("incomplete packet delivered")
	}
	if b.reasm.Pending() != 0 {
		t.Errorf("reassembly context leaked: %d", b.reasm.Pending())
	}
	if b.reasm.Drops == 0 {
		t.Error("timeout drop not counted")
	}

	// The receiver still works for the next, complete, packet.
	pkt2 := pkt
	pkt2.ID = 8
	frags2, _ := ipv4.Fragment(pkt2, 576)
	for _, f := range frags2 {
		b.receiveIP(b.Ifaces()[0], f)
	}
	sim.Sched.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d after recovery", delivered)
	}
}

// TestFragmentsThroughLossySegmentEventuallyExpire exercises the same
// path end to end: heavy loss on a narrow segment leaves partial
// contexts, which must all be reaped.
func TestFragmentsThroughLossySegmentEventuallyExpire(t *testing.T) {
	sim := netsim.NewSim(3)
	seg := sim.NewSegment("lossy", netsim.SegmentOpts{MTU: 576})
	rng := sim.Sched.NewStream()
	seg.SetFaultHook(func(netsim.Frame) netsim.Impairment {
		return netsim.Impairment{Drop: rng.Float64() < 0.3} // 30% uniform loss
	})
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	a := NewHost(sim, "a")
	a.AddIface("eth0", seg, prefix.Host(1), prefix)
	b := NewHost(sim, "b")
	b.AddIface("eth0", seg, prefix.Host(2), prefix)
	b.Handle(99, func(_ *Iface, pkt ipv4.Packet) {})

	for i := 0; i < 50; i++ {
		_ = a.SendIP(ipv4.Packet{
			Header:  ipv4.Header{Protocol: 99, Dst: b.FirstAddr()},
			Payload: make([]byte, 3000),
		})
	}
	sim.Sched.Run()
	if b.reasm.Pending() != 0 {
		t.Errorf("contexts leaked: %d", b.reasm.Pending())
	}
}
