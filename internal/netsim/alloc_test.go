package netsim

import (
	"testing"

	"mob4x4/internal/race"
)

// TestSteadyStateHopZeroAllocs pins the link layer's per-frame cost: once
// the delivery-job and buffer pools are warm, carrying a frame across a
// segment (schedule, copy, deliver) must not allocate.
func TestSteadyStateHopZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{})
	a := sim.NewNIC("a")
	dst := sim.NewNIC("b")
	delivered := 0
	dst.SetReceiver(func(_ *NIC, f Frame) { delivered++ })
	a.Attach(seg)
	dst.Attach(seg)
	payload := make([]byte, 1400)

	// Warm the pools and the scheduler's timer store.
	for i := 0; i < 64; i++ {
		a.Send(Frame{Dst: dst.MAC(), Payload: payload})
	}
	sim.Sched.Run()

	allocs := testing.AllocsPerRun(200, func() {
		a.Send(Frame{Dst: dst.MAC(), Payload: payload})
		sim.Sched.Run()
	})
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if allocs != 0 {
		t.Fatalf("steady-state hop allocated %.1f times per run, want 0", allocs)
	}
}
