package netsim

import (
	"reflect"
	"testing"

	"mob4x4/internal/metrics"
)

// pickResolver is a stand-in for the stack's resolver: it records the
// frames it is handed and picks a fixed set of NICs, in reverse slot
// order and with a repeat, to check that the segment sorts and dedupes.
type pickResolver struct {
	frames int
	picks  []*NIC
}

func (r *pickResolver) ResolveARP(_ Frame, dests []*NIC) []*NIC {
	r.frames++
	for k := len(r.picks) - 1; k >= 0; k-- {
		dests = append(dests, r.picks[k])
	}
	return append(dests, r.picks...)
}

func TestBroadcastARPGoesThroughResolver(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{Latency: 1e6})
	nics := make([]*NIC, 5)
	var order []int
	for i := range nics {
		nics[i] = sim.NewNIC("n")
		nics[i].SetReceiver(func(*NIC, Frame) { order = append(order, i) })
		nics[i].Attach(seg)
	}
	r := &pickResolver{picks: []*NIC{nics[1], nics[3]}}
	built := 0
	sim.SetARPResolvers(func(s *Segment) ARPResolver {
		built++
		if s != seg {
			t.Errorf("resolver built for %s", s.Name())
		}
		return r
	})

	// Unicast ARP and broadcast IP keep the plain fan-out and build no
	// resolver.
	nics[0].Send(Frame{Dst: nics[2].MAC(), Type: EtherTypeARP})
	nics[0].Send(Frame{Dst: BroadcastMAC, Type: EtherTypeIPv4})
	sim.Sched.Run()
	if built != 0 || seg.ARPResolver() != nil {
		t.Fatalf("resolver built before any broadcast ARP landed")
	}
	if want := []int{2, 1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("plain deliveries went to %v, want %v", order, want)
	}

	order = nil
	before := seg.Delivered
	for k := 0; k < 2; k++ {
		nics[0].Send(Frame{Dst: BroadcastMAC, Type: EtherTypeARP})
	}
	sim.Sched.Run()
	if built != 1 || r.frames != 2 || seg.ARPResolver() != r {
		t.Errorf("built %d resolvers for %d frames, want 1 for 2", built, r.frames)
	}
	if want := []int{1, 3, 1, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("broadcast ARP called back %v, want each pick once per frame in slot order %v", order, want)
	}
	if got := seg.Delivered - before; got != 8 {
		t.Errorf("Delivered grew by %d, want 8 (four hearers per frame)", got)
	}
}

func TestBroadcastARPNobodyHears(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{})
	a := sim.NewNIC("a")
	a.Attach(seg)
	sim.SetARPResolvers(func(*Segment) ARPResolver {
		t.Error("resolver built for a frame nobody hears")
		return nil
	})
	a.Send(Frame{Dst: BroadcastMAC, Type: EtherTypeARP})
	sim.Sched.Run()
	if n := sim.Metrics.DropCount(metrics.DropNoDest); n != 1 {
		t.Errorf("drop/no_dest = %d, want 1", n)
	}
	if seg.Delivered != 0 {
		t.Errorf("Delivered = %d, want 0", seg.Delivered)
	}
}
