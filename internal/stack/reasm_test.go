package stack

import (
	"bytes"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
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
	frags, err := ipv4.AppendFragments(nil, pkt, 576)
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
	frags2, _ := ipv4.AppendFragments(nil, pkt2, 576)
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

// TestReassembledPayloadBorrowed: a reassembled packet's payload is
// borrowed from the host's reassembler and reused for the next packet, so
// a handler that copies nothing must still see exactly its own packet's
// bytes — including after a larger packet left its bytes in the buffer.
func TestReassembledPayloadBorrowed(t *testing.T) {
	sim := netsim.NewSim(1)
	seg := sim.NewSegment("lan", netsim.SegmentOpts{MTU: 576})
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	a := NewHost(sim, "a")
	a.AddIface("eth0", seg, prefix.Host(1), prefix)
	b := NewHost(sim, "b")
	b.AddIface("eth0", seg, prefix.Host(2), prefix)

	var want []byte
	var bufs []*byte // the first byte of each delivered payload
	b.Handle(99, func(_ *Iface, pkt ipv4.Packet) {
		if !bytes.Equal(pkt.Payload, want) {
			t.Errorf("packet of %d bytes delivered as %d bytes that differ", len(want), len(pkt.Payload))
		}
		bufs = append(bufs, &pkt.Payload[0])
	})
	for i, size := range []int{3000, 1200, 2000, 600} {
		want = make([]byte, size)
		for j := range want {
			want[j] = byte(i*37 + j*11)
		}
		if err := a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}, Payload: want}); err != nil {
			t.Fatal(err)
		}
		sim.Sched.Run()
	}
	if len(bufs) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(bufs))
	}
	if bufs[1] != bufs[0] || bufs[2] != bufs[0] || bufs[3] != bufs[0] {
		t.Error("the reassembly buffer was not reused, so the test shows nothing")
	}
}

// TestRehomeReassemblesAfterQuiesce: a host that migrates to another
// region keeps its reassembly timer handle, and after Quiesce and Rehome
// it reassembles on the new region and times out a partial packet on the
// new region's scheduler.
func TestRehomeReassemblesAfterQuiesce(t *testing.T) {
	cluster := netsim.NewCluster()
	simA := cluster.NewSim(vtime.NewScheduler(1))
	simB := cluster.NewSim(vtime.NewScheduler(2))
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	segA := simA.NewSegment("lanA", netsim.SegmentOpts{MTU: 576})
	segB := simB.NewSegment("lanB", netsim.SegmentOpts{MTU: 576})
	src := NewHost(simB, "src")
	src.AddIface("eth0", segB, prefix.Host(1), prefix)
	mover := NewHost(simA, "mover")
	ifc := mover.AddIface("eth0", segA, prefix.Host(2), prefix)
	delivered := 0
	mover.Handle(99, func(*Iface, ipv4.Packet) { delivered++ })

	pkt := ipv4.Packet{
		Header:  ipv4.Header{Protocol: 99, TTL: 64, ID: 7, Src: src.FirstAddr(), Dst: mover.FirstAddr()},
		Payload: make([]byte, 2000),
	}
	frags, _ := ipv4.AppendFragments(nil, pkt, 576)
	mover.receiveIP(ifc, frags[0]) // a partial packet arms the timer on region A
	timer := mover.reasmTimer
	if !timer.Pending() {
		t.Fatal("partial packet did not arm the reassembly timer")
	}

	mover.Quiesce()
	ifc.Detach()
	mover.Rehome(simB)
	ifc.Attach(segB)
	if mover.reasmTimer != timer {
		t.Error("Rehome replaced the reassembly timer handle")
	}

	for _, id := range []uint16{8, 9} {
		pkt.ID = id
		if id == 9 {
			pkt.Payload = pkt.Payload[:1000] // its tail is lost below
		}
		frags, _ = ipv4.AppendFragments(frags[:0], pkt, 576)
		for i, f := range frags {
			if id == 9 && i == len(frags)-1 {
				break
			}
			mover.receiveIP(ifc, f)
		}
	}
	if delivered != 1 || mover.Stats.Reassembled != 1 {
		t.Fatalf("delivered %d, reassembled %d after the move; want 1 and 1", delivered, mover.Stats.Reassembled)
	}
	if !timer.Pending() || mover.reasm.Pending() != 1 {
		t.Fatal("the partial packet did not arm the timer on region B")
	}
	simB.Sched.Run()
	if mover.reasm.Pending() != 0 {
		t.Errorf("region B's scheduler did not expire the partial packet: %d pending", mover.reasm.Pending())
	}
	if simA.Sched.Pending() != 0 {
		t.Errorf("region A still holds %d events for the migrated host", simA.Sched.Pending())
	}
}

// TestFragmentedPacketKeepsTraceID traces one 2,000-byte SendIP over a
// 576-byte segment: every fragment and the reassembled packet carry the id
// it was sent with, so its delivery is logged under that id.
func TestFragmentedPacketKeepsTraceID(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{MTU: 576, Latency: 1e6})
	got := capture(b, 99)
	log, stop := sim.Trace.Capture()
	err := a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}, Payload: make([]byte, 2000)})
	if err != nil {
		t.Fatal(err)
	}
	sim.Sched.Run()
	stop()
	if len(*got) != 1 || a.Stats.FragsCreated < 2 || b.Stats.Reassembled != 1 {
		t.Fatalf("delivered %d, fragments %d, reassembled %d; want one packet sent in fragments",
			len(*got), a.Stats.FragsCreated, b.Stats.Reassembled)
	}
	id := log.Send("a", 0)
	if id == 0 {
		t.Fatal("no send event")
	}
	if d, to := log.Transit(id); to != "b" || d <= 0 {
		t.Errorf("packet %d: no delivery logged at b under its id (path %q)", id, log.Path(id))
	}
	if (*got)[0].TraceID != id {
		t.Errorf("reassembled packet has trace id %d, want %d", (*got)[0].TraceID, id)
	}
	for _, e := range *log {
		if e.Kind == netsim.EventDeliver && e.PktID != id {
			t.Errorf("delivery logged under id %d, want %d", e.PktID, id)
		}
	}
}
