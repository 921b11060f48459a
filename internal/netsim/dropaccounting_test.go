package netsim

import (
	"testing"

	"mob4x4/internal/metrics"
)

// TestSegmentDropAccounting pins the contract that every dropped frame is
// accounted exactly once: the registry's drop cause for its reason
// increments by one, no other cause moves, AND the matching trace event
// is recorded exactly once, at the dropping segment.
func TestSegmentDropAccounting(t *testing.T) {
	cases := []struct {
		name    string
		opts    SegmentOpts
		prep    func(sim *Sim, seg *Segment, sender, receiver *NIC)
		payload int
		cause   metrics.DropCause
		kind    EventKind
	}{
		{
			name:    "mtu",
			opts:    SegmentOpts{MTU: 100},
			payload: 200,
			cause:   metrics.DropMTU,
			kind:    EventDropMTU,
		},
		{
			name: "nodest",
			opts: SegmentOpts{},
			prep: func(_ *Sim, _ *Segment, _, receiver *NIC) {
				receiver.Detach() // nobody left to hear the unicast
			},
			payload: 50,
			cause:   metrics.DropNoDest,
			kind:    EventDropNoDest,
		},
		{
			name: "down",
			opts: SegmentOpts{},
			prep: func(_ *Sim, seg *Segment, _, _ *NIC) {
				seg.SetDown(true)
			},
			payload: 50,
			cause:   metrics.DropDown,
			kind:    EventDropDown,
		},
		{
			name: "fault",
			opts: SegmentOpts{},
			prep: func(_ *Sim, seg *Segment, _, _ *NIC) {
				seg.SetFaultHook(func(Frame) Impairment { return Impairment{Drop: true} })
			},
			payload: 50,
			cause:   metrics.DropFault, // the zero Impairment.Cause
			kind:    EventDropFault,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := NewSim(1)
			seg := sim.NewSegment("lan", tc.opts)
			sender := sim.NewNIC("tx")
			receiver := sim.NewNIC("rx")
			delivered := 0
			receiver.SetReceiver(func(*NIC, Frame) { delivered++ })
			sender.Attach(seg)
			receiver.Attach(seg)
			if tc.prep != nil {
				tc.prep(sim, seg, sender, receiver)
			}
			base := BufOutstanding()
			log, stop := sim.Trace.Capture()

			buf := GetBuf()
			buf.B = append(buf.B, make([]byte, tc.payload)...)
			sender.Send(Frame{Dst: receiver.MAC(), Type: EtherTypeIPv4, Payload: buf.B, Buf: buf})
			sim.Sched.Run()
			stop()

			if got := sim.Metrics.DropCount(tc.cause); got != 1 {
				t.Errorf("Metrics.DropCount(%s) = %d, want exactly 1", tc.cause, got)
			}
			if got := countKind(*log, tc.kind); got != 1 {
				t.Errorf("%s events = %d, want exactly 1", tc.kind, got)
			}
			for _, e := range *log {
				if e.Kind == tc.kind && e.Where != seg.Name() {
					t.Errorf("%s event at %q, want %q", tc.kind, e.Where, seg.Name())
				}
			}
			if delivered != 0 {
				t.Errorf("frame delivered despite %s drop", tc.name)
			}
			// The dropped frame's pooled buffer must have been recycled.
			if n := BufOutstanding() - base; n != 0 {
				t.Errorf("BufOutstanding grew by %d after drop, want 0", n)
			}
			// No other drop reason fired.
			if total := totalDrops(sim.Metrics); total != 1 {
				t.Errorf("total drops = %d, want 1 (single accounting)", total)
			}
		})
	}
}

// TestSegmentDeliveryNotAccountedAsDrop is the control: a delivered frame
// leaves every drop counter at zero.
func TestSegmentDeliveryNotAccountedAsDrop(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{})
	sender := sim.NewNIC("tx")
	receiver := sim.NewNIC("rx")
	delivered := 0
	receiver.SetReceiver(func(*NIC, Frame) { delivered++ })
	sender.Attach(seg)
	receiver.Attach(seg)

	buf := GetBuf()
	buf.B = append(buf.B, []byte("payload")...)
	sender.Send(Frame{Dst: receiver.MAC(), Type: EtherTypeIPv4, Payload: buf.B, Buf: buf})
	sim.Sched.Run()

	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if total := totalDrops(sim.Metrics); total != 0 {
		t.Errorf("drop counters = %d on a clean delivery", total)
	}
}

// totalDrops sums the registry's drop vector over every cause.
func totalDrops(reg *metrics.Registry) uint64 {
	var n uint64
	for c := 0; c < metrics.NumDropCauses; c++ {
		n += reg.DropCount(metrics.DropCause(c))
	}
	return n
}
